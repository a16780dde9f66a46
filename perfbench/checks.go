package main

import (
	"fmt"
	"math"
	"sort"
)

// The output checks compare the program's answers against values the
// benchmark computes itself or against properties the method guarantees.
// None of them compares against a stored copy of earlier output.

// lossAlpha is the one-sided significance level of the cascade accuracy
// test: a loss this unlikely under "no difference" fails the run.
const lossAlpha = 0.01

// confidence is the winning class's probability for a binary score.
func confidence(p float64) float64 {
	if p >= 0.5 {
		return p
	}
	return 1 - p
}

// checkCascade verifies the cascade's defining property row by row: the
// answer is the small model's score where the small model's confidence
// exceeds the threshold, and the full model's score elsewhere. Equality is
// bit-exact.
func checkCascade(out, small, full []float64, threshold float64) error {
	if len(out) != len(small) || len(out) != len(full) {
		return fmt.Errorf("cascade: %d outputs for %d small and %d full scores", len(out), len(small), len(full))
	}
	for i, p := range out {
		want, from := full[i], "full"
		if confidence(small[i]) > threshold {
			want, from = small[i], "small"
		}
		if math.Float64bits(p) != math.Float64bits(want) {
			return fmt.Errorf("cascade: row %d answered %v, want the %s model's %v (threshold %v)", i, p, from, want, threshold)
		}
	}
	return nil
}

// checkEqual verifies two prediction vectors are bit-identical.
func checkEqual(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d predictions, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkTopK verifies a top-K answer has exactly k distinct indices in [0, n).
func checkTopK(idx []int, k, n int) error {
	if len(idx) != k {
		return fmt.Errorf("top-K: got %d indices, want %d", len(idx), k)
	}
	seen := make(map[int]bool, k)
	for _, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("top-K: index %d outside [0,%d)", i, n)
		}
		if seen[i] {
			return fmt.Errorf("top-K: index %d returned twice", i)
		}
		seen[i] = true
	}
	return nil
}

// checkSameIndices verifies a top-K answer equals the reference copy's.
func checkSameIndices(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-K: got %d indices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("top-K: position %d holds row %d, want row %d", i, got[i], want[i])
		}
	}
	return nil
}

// kthScore is the K-th highest score: a row belongs to some exact top-K
// answer exactly when its score is at least this, however ties are broken.
func kthScore(scores []float64, k int) float64 {
	s := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[k-1]
}

// precision is the share of the returned rows whose full-model score
// reaches the K-th highest score, i.e. the overlap with an exact top-K that
// breaks ties in the answer's favour.
func precision(got []int, scores []float64, kth float64) float64 {
	hit := 0
	for _, i := range got {
		if scores[i] >= kth {
			hit++
		}
	}
	return float64(hit) / float64(len(got))
}

// checkAtLeast fails when a measured ratio falls below its floor.
func checkAtLeast(what string, got, floor float64) error {
	if !(got >= floor) {
		return fmt.Errorf("%s %.4f is below its floor %.4f", what, got, floor)
	}
	return nil
}

// correctRows marks which scores classify their row as its label does.
func correctRows(scores, labels []float64) []bool {
	out := make([]bool, len(scores))
	for i, p := range scores {
		out[i] = (p >= 0.5) == (labels[i] >= 0.5)
	}
	return out
}

// share is the fraction of true entries.
func share(b []bool) float64 {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return float64(n) / float64(len(b))
}

// lossPValue is the one-sided exact sign test of "the cascade is less
// accurate than the full model" on paired rows: among the rows where exactly
// one of the two is right, the number the full model alone gets right is
// Binomial(m, 1/2) when neither is better. It returns P(X >= observed).
func lossPValue(cascade, full []bool) float64 {
	fullOnly, m := 0, 0
	for i := range cascade {
		if cascade[i] != full[i] {
			m++
			if full[i] {
				fullOnly++
			}
		}
	}
	if fullOnly == 0 {
		return 1
	}
	var p float64
	for x := fullOnly; x <= m; x++ {
		lc, _ := math.Lgamma(float64(m + 1))
		la, _ := math.Lgamma(float64(x + 1))
		lb, _ := math.Lgamma(float64(m - x + 1))
		p += math.Exp(lc - la - lb - float64(m)*math.Ln2)
	}
	return math.Min(p, 1)
}

// checkNoSignificantLoss fails when the cascade's accuracy on the rows is
// significantly below the full model's at level lossAlpha.
func checkNoSignificantLoss(cascade, full []bool) error {
	if p := lossPValue(cascade, full); p < lossAlpha {
		return fmt.Errorf("cascade accuracy %.4f is significantly below the full model's %.4f (sign test p=%.2g)",
			share(cascade), share(full), p)
	}
	return nil
}

// checkStoreHealth fails when any remote lookup was answered from the
// degraded fallback or the circuit breaker opened.
func checkStoreHealth(degraded, breakerOpens int64) error {
	if degraded != 0 || breakerOpens != 0 {
		return fmt.Errorf("store: %d degraded lookups, %d breaker opens; want none", degraded, breakerOpens)
	}
	return nil
}
