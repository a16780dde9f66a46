package main

import (
	"math"
	"testing"
)

// Each output check must accept a right answer and reject the same answer
// with one value corrupted.

func TestCheckCascadeRejectsOneWrongRow(t *testing.T) {
	small := []float64{0.95, 0.55, 0.02, 0.6}
	full := []float64{0.9, 0.1, 0.3, 0.7}
	const threshold = 0.8
	good := []float64{0.95, 0.1, 0.02, 0.7} // small where confident, full elsewhere
	if err := checkCascade(good, small, full, threshold); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for i := range good {
		bad := append([]float64(nil), good...)
		bad[i] = math.Nextafter(bad[i], 1)
		if checkCascade(bad, small, full, threshold) == nil {
			t.Errorf("row %d corrupted by one ulp was accepted", i)
		}
	}
	// Answering a confident row with the full model is also wrong.
	bad := append([]float64(nil), good...)
	bad[0] = full[0]
	if checkCascade(bad, small, full, threshold) == nil {
		t.Error("full-model answer on a confident row was accepted")
	}
}

func TestCheckEqualRejectsOneWrongValue(t *testing.T) {
	want := []float64{0.25, 0.5, 0.75}
	if err := checkEqual(append([]float64(nil), want...), want); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	bad := append([]float64(nil), want...)
	bad[1] = math.Nextafter(bad[1], 0)
	if checkEqual(bad, want) == nil {
		t.Error("answer one ulp off was accepted")
	}
	if checkEqual(want[:2], want) == nil {
		t.Error("short answer was accepted")
	}
}

func TestCheckTopKRejectsMalformedAnswers(t *testing.T) {
	if err := checkTopK([]int{3, 0, 7}, 3, 8); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for name, idx := range map[string][]int{
		"duplicate":    {3, 3, 7},
		"out of range": {3, 0, 8},
		"negative":     {3, -1, 7},
		"too few":      {3, 0},
	} {
		if checkTopK(idx, 3, 8) == nil {
			t.Errorf("%s answer %v was accepted", name, idx)
		}
	}
}

func TestPrecisionFloorRejectsOneWrongIndex(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.8, 0.2, 0.8}
	kth := kthScore(scores, 2) // 0.8: rows 1, 2 and 4 all qualify
	if p := precision([]int{1, 4}, scores, kth); p != 1 {
		t.Fatalf("a tie-broken exact answer has precision %v, want 1", p)
	}
	p := precision([]int{1, 3}, scores, kth)
	if p != 0.5 {
		t.Fatalf("precision with one wrong index is %v, want 0.5", p)
	}
	if checkAtLeast("precision", p, 0.75) == nil {
		t.Error("precision below the floor was accepted")
	}
}

func TestAccuracyFloorRejectsCorruptedAnswer(t *testing.T) {
	labels := []float64{1, 0, 1, 0}
	scores := []float64{0.9, 0.2, 0.7, 0.4}
	if err := checkAtLeast("accuracy", share(correctRows(scores, labels)), 1); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	scores[2] = 0.3
	if checkAtLeast("accuracy", share(correctRows(scores, labels)), 1) == nil {
		t.Error("one misclassified row was accepted at floor 1")
	}
}

func TestSignificantLossDetectsOneSidedLoss(t *testing.T) {
	n := 400
	casc, full := make([]bool, n), make([]bool, n)
	for i := range full {
		full[i] = true
		casc[i] = true
	}
	// Two disagreements, one each way: no evidence of a loss.
	casc[0], full[1] = false, false
	if err := checkNoSignificantLoss(casc, full); err != nil {
		t.Fatalf("balanced disagreement flagged: %v", err)
	}
	// Ten rows the full model alone gets right: p = 2^-10 < 0.01.
	for i := 2; i < 12; i++ {
		casc[i] = false
	}
	if checkNoSignificantLoss(casc, full) == nil {
		t.Error("a one-sided loss on ten rows was not significant")
	}
}

func TestLossPValueMatchesBinomialTail(t *testing.T) {
	// 3 of 4 discordant rows favour the full model: P(X >= 3) = 5/16.
	casc := []bool{false, false, false, true, true}
	full := []bool{true, true, true, false, true}
	if p := lossPValue(casc, full); math.Abs(p-5.0/16) > 1e-12 {
		t.Fatalf("p = %v, want %v", p, 5.0/16)
	}
}

func TestCheckStoreHealthRejectsDegradedOrBreaker(t *testing.T) {
	if err := checkStoreHealth(0, 0); err != nil {
		t.Fatalf("healthy store rejected: %v", err)
	}
	if checkStoreHealth(1, 0) == nil || checkStoreHealth(0, 1) == nil {
		t.Error("a degraded lookup or a breaker open was accepted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
