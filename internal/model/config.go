// Package model implements a GPT-2-like transformer — the workload of every
// experiment in the ZeRO paper — with real numerics: forward pass, manual
// backpropagation, activation checkpointing, and flat parameter storage.
//
// All parameters live in one flat []float32 with per-tensor segments. That
// layout is what makes the package a faithful ZeRO substrate: ZeRO-DP
// partitions the flat space across data-parallel ranks, stage 3 gathers it
// segment by segment, and gradient bucketing walks the same offsets. The
// model is exercised at laptop scale (tiny vocab/hidden sizes) for
// correctness; the paper-scale shapes are handled analytically by
// internal/perfmodel and the memory planner.
package model

import (
	"fmt"

	"repro/internal/comm"
)

// Config describes a transformer architecture. The JSON tags are the
// "model" block of the declarative engine config (internal/engine).
type Config struct {
	Layers int `json:"layers"` // transformer blocks
	Hidden int `json:"hidden"` // embedding width h
	Heads  int `json:"heads"`  // attention heads (must divide Hidden)
	Vocab  int `json:"vocab"`  // token vocabulary
	Seq    int `json:"seq"`    // maximum sequence length (position table size)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.Vocab <= 0 || c.Seq <= 0:
		return fmt.Errorf("model: all dimensions must be positive: %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	}
	return nil
}

// Segment names one parameter tensor inside the flat buffer. Layer < 0
// marks non-block tensors (embeddings, final layernorm).
type Segment struct {
	Name  string
	Layer int
	Lo    int // inclusive start offset in the flat parameter buffer
	Hi    int // exclusive end offset
}

// Len returns the segment's element count.
func (s Segment) Len() int { return s.Hi - s.Lo }

// Layout is the flat-buffer address map of every parameter tensor.
type Layout struct {
	Segments []Segment
	Total    int

	// Offsets used by the forward/backward passes.
	tokEmb, posEmb int
	lnF            int
	blocks         []blockOffsets

	// The tensor-parallel shard every block holds: its attention heads
	// and its FFN columns (all of them when unsharded).
	heads, ffn comm.Range
	hidden, dh int
}

type blockOffsets struct {
	ln1Gamma, ln1Beta int
	wQKV, bQKV        int
	wProj, bProj      int
	ln2Gamma, ln2Beta int
	wFC1, bFC1        int
	wFC2, bFC2        int
}

// BuildLayout computes the address map for a configuration. The layout
// order is embeddings, then blocks in order, then the final layernorm —
// matching the temporal order parameters are needed in the forward pass,
// which is what ZeRO stage 3's pipelined all-gather schedule exploits
// (§7.2.2).
func BuildLayout(c Config) Layout { return buildLayout(c, 0, 1) }

// buildLayout is the address map of tensor-parallel rank `rank` of `size`:
// Megatron's split (§10.1), where the rank owns heads
// comm.Partition(Heads, size)[rank] and FFN columns
// comm.Partition(4h, size)[rank]. wqkv/bqkv (their [Q|K|V] columns) and w1/b1
// hold the owned columns, wproj and w2 the owned rows; embeddings,
// layernorms and the bproj/b2 biases are replicated.
func buildLayout(c Config, rank, size int) Layout {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if size > c.Heads {
		panic(fmt.Sprintf("model: %d tensor-parallel ranks for %d heads leaves a rank without heads", size, c.Heads))
	}
	h := c.Hidden
	l := Layout{
		heads:  comm.Partition(c.Heads, size)[rank],
		ffn:    comm.Partition(4*h, size)[rank],
		hidden: h,
		dh:     h / c.Heads,
	}
	hw := l.heads.Len() * l.dh
	ffn := l.ffn.Len()
	off := 0
	add := func(name string, layer, n int) int {
		lo := off
		off += n
		l.Segments = append(l.Segments, Segment{Name: name, Layer: layer, Lo: lo, Hi: off})
		return lo
	}
	l.tokEmb = add("tok_emb", -1, c.Vocab*h)
	l.posEmb = add("pos_emb", -1, c.Seq*h)
	l.blocks = make([]blockOffsets, c.Layers)
	for i := 0; i < c.Layers; i++ {
		b := &l.blocks[i]
		b.ln1Gamma = add(fmt.Sprintf("block%d.ln1.gamma", i), i, h)
		b.ln1Beta = add(fmt.Sprintf("block%d.ln1.beta", i), i, h)
		b.wQKV = add(fmt.Sprintf("block%d.attn.wqkv", i), i, h*3*hw)
		b.bQKV = add(fmt.Sprintf("block%d.attn.bqkv", i), i, 3*hw)
		b.wProj = add(fmt.Sprintf("block%d.attn.wproj", i), i, hw*h)
		b.bProj = add(fmt.Sprintf("block%d.attn.bproj", i), i, h)
		b.ln2Gamma = add(fmt.Sprintf("block%d.ln2.gamma", i), i, h)
		b.ln2Beta = add(fmt.Sprintf("block%d.ln2.beta", i), i, h)
		b.wFC1 = add(fmt.Sprintf("block%d.mlp.w1", i), i, h*ffn)
		b.bFC1 = add(fmt.Sprintf("block%d.mlp.b1", i), i, ffn)
		b.wFC2 = add(fmt.Sprintf("block%d.mlp.w2", i), i, ffn*h)
		b.bFC2 = add(fmt.Sprintf("block%d.mlp.b2", i), i, h)
	}
	l.lnF = add("ln_f.gamma", -1, h)
	add("ln_f.beta", -1, h)
	l.Total = off
	return l
}

// shardRuns calls f for each contiguous run of segment s the layout's shard
// holds: n elements at offset full in the unsharded segment and at offset
// local in the shard's. A replicated segment is one whole run.
func (l Layout) shardRuns(s Segment, f func(full, local, n int)) {
	h := l.hidden
	q := comm.Range{Lo: l.heads.Lo * l.dh, Hi: l.heads.Hi * l.dh}
	qkv := []comm.Range{q, {Lo: h + q.Lo, Hi: h + q.Hi}, {Lo: 2*h + q.Lo, Hi: 2*h + q.Hi}}
	cols := func(rows, width int, rs ...comm.Range) {
		local := 0
		for r := 0; r < rows; r++ {
			for _, c := range rs {
				f(r*width+c.Lo, local, c.Len())
				local += c.Len()
			}
		}
	}
	switch {
	case hasSuffix(s.Name, ".wqkv"):
		cols(h, 3*h, qkv...)
	case hasSuffix(s.Name, ".bqkv"):
		cols(1, 3*h, qkv...)
	case hasSuffix(s.Name, ".wproj"):
		cols(1, h*h, comm.Range{Lo: q.Lo * h, Hi: q.Hi * h})
	case hasSuffix(s.Name, ".w1"):
		cols(h, 4*h, l.ffn)
	case hasSuffix(s.Name, ".b1"):
		cols(1, 4*h, l.ffn)
	case hasSuffix(s.Name, ".w2"):
		cols(1, 4*h*h, comm.Range{Lo: l.ffn.Lo * h, Hi: l.ffn.Hi * h})
	default:
		f(0, 0, s.Len())
	}
}

// ParamCount returns the total number of parameters for the configuration:
// 12h²+13h per layer plus embeddings and the final layernorm. (The output
// head is tied to the token embedding, as in GPT-2.)
func (c Config) ParamCount() int {
	return BuildLayout(c).Total
}

// LayerSegments groups the flat-buffer ranges by transformer block; index
// -1 (stored first) covers the embeddings, index Layers the final norm.
// ZeRO stage 3 uses these groups as its gather/discard granularity.
func (l Layout) LayerSegments(layers int) []Segment {
	out := make([]Segment, 0, layers+2)
	// Embeddings are [0, blocks[0].ln1Gamma).
	out = append(out, Segment{Name: "embeddings", Layer: -1, Lo: 0, Hi: l.blocks[0].ln1Gamma})
	for i := 0; i < layers; i++ {
		lo := l.blocks[i].ln1Gamma
		hi := l.lnF
		if i+1 < layers {
			hi = l.blocks[i+1].ln1Gamma
		}
		out = append(out, Segment{Name: fmt.Sprintf("block%d", i), Layer: i, Lo: lo, Hi: hi})
	}
	out = append(out, Segment{Name: "ln_f", Layer: layers, Lo: l.lnF, Hi: l.Total})
	return out
}
