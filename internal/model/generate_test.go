package model

import (
	"testing"

	"repro/internal/tensor"
)

// Overfit a tiny model on a strictly periodic stream; greedy generation
// must then reproduce the period exactly — the end-to-end check that
// embedding, attention (which must look back `period` positions), MLP and
// the tied head cooperate.
func TestGenerateLearnsPeriodicPattern(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 9, Seq: 16}
	m := New(cfg, 3)

	period := []int{1, 5, 2, 7}
	ids := make([]int, cfg.Seq)
	targets := make([]int, cfg.Seq)
	for i := range ids {
		ids[i] = period[i%4]
		targets[i] = period[(i+1)%4]
	}

	var loss float64
	for step := 0; step < 400; step++ {
		m.ZeroGrads()
		loss = m.Loss(ids, targets, 1)
		m.Backward()
		tensor.AXPY(-0.05, m.Grads, m.Params)
		if loss < 0.05 {
			break
		}
	}
	if loss >= 0.05 {
		t.Fatalf("failed to overfit the period: loss %.4f", loss)
	}

	prompt := []int{1, 5, 2, 7, 1, 5}
	got := m.Generate(prompt, 8)
	want := []int{2, 7, 1, 5, 2, 7, 1, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("generation diverged at %d: got %v, want %v", i, got, want)
		}
	}
}

func TestNextTokenDeterministic(t *testing.T) {
	cfg := Config{Layers: 1, Hidden: 16, Heads: 2, Vocab: 11, Seq: 8}
	m := New(cfg, 5)
	a := m.NextToken([]int{1, 2, 3})
	b := m.NextToken([]int{1, 2, 3})
	if a != b {
		t.Errorf("NextToken not deterministic: %d vs %d", a, b)
	}
	if a < 0 || a >= cfg.Vocab {
		t.Errorf("NextToken out of vocab: %d", a)
	}
}

func TestGenerateSlidesWindow(t *testing.T) {
	cfg := Config{Layers: 1, Hidden: 16, Heads: 2, Vocab: 7, Seq: 4}
	m := New(cfg, 9)
	prompt := []int{1, 2, 3, 4 % 7, 5 % 7, 6}
	got := m.Generate(prompt, 3) // context longer than Seq must not panic
	if len(got) != 3 {
		t.Fatalf("generated %d tokens, want 3", len(got))
	}
}

func TestNextTokenEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Layers: 1, Hidden: 8, Heads: 2, Vocab: 5, Seq: 4}, 1).NextToken(nil)
}

// Generate on an fp16 model returns, token by token, the argmax of that
// model's own Loss probabilities at the last position.
func TestGenerateFP16MatchesLossArgmax(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 16, Heads: 2, Vocab: 11, Seq: 8}
	m := New(cfg, 5)
	m.SetFP16Compute(true)
	prompt := []int{1, 2, 3}
	got := m.Generate(prompt, 4)
	ctx := append([]int(nil), prompt...)
	for i, tok := range got {
		m.Loss(ctx, make([]int, len(ctx)), 1)
		row := m.ws.probs[(len(ctx)-1)*cfg.Vocab : len(ctx)*cfg.Vocab]
		best := 0
		for j, p := range row {
			if p > row[best] {
				best = j
			}
		}
		if tok != best {
			t.Fatalf("token %d: Generate gave %d, fp16 Loss argmax is %d", i, tok, best)
		}
		ctx = append(ctx, tok)
	}
}
