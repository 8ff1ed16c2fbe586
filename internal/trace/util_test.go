package trace

import (
	"testing"

	"repro/internal/xrand"
)

func TestSample(t *testing.T) {
	tr := genValid(t, Uniform)
	s, err := tr.Sample(10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Users) != 10 {
		t.Fatalf("sample size %d", len(s.Users))
	}
	seen := map[int]bool{}
	for _, u := range s.Users {
		if seen[u.ID] {
			t.Fatal("sample drew a user twice")
		}
		seen[u.ID] = true
	}
	if _, err := tr.Sample(0, xrand.New(1)); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := tr.Sample(len(tr.Users)+1, xrand.New(1)); err == nil {
		t.Error("oversample accepted")
	}
	// Determinism.
	s2, err := tr.Sample(10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Users {
		if s.Users[i].ID != s2.Users[i].ID {
			t.Fatal("sampling not deterministic per seed")
		}
	}
}

func TestTotalWeight(t *testing.T) {
	tr := genValid(t, Uniform)
	var want float64
	for _, u := range tr.Users {
		want += u.Weight
	}
	if got := tr.TotalWeight(); got != want {
		t.Fatalf("TotalWeight = %v, want %v", got, want)
	}
}
