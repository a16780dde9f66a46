package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSpread runs one workload n times, each in a fresh process with seeds
// 1..n, and prints every metric's median, quartiles and spread (the
// distance between the quartiles as a share of the median), next to the
// metric's bound. Bounds are set from this output.
func runSpread(name string, n, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	var wrong []int
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: last line: %w", seed, err)
		}
		if !r.Correct {
			wrong = append(wrong, seed)
		}
		failShares = append(failShares, float64(r.Failed)/float64(r.Attempted))
		for k, v := range r.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d done\n", seed)
	}
	bounds := map[string]float64{}
	for _, s := range endToEnd {
		bounds[s.Name] = s.Bound
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s: %d runs of %ds, failed share per run %v\n", name, n, seconds, failShares)
	fmt.Fprintf(&buf, "%-28s %-8s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		sp := 0.0
		if q2 != 0 {
			sp = (q3 - q1) / q2
		}
		b := ""
		if v, ok := bounds[k]; ok {
			b = strconv.FormatFloat(v, 'f', 2, 64)
		}
		fmt.Fprintf(&buf, "%-28s %-8s %14.4f %14.4f %14.4f %8.4f %6s  %.4g\n", k, units[k], q1, q2, q3, sp, b, values[k])
	}
	if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
		return err
	}
	if len(wrong) > 0 {
		return fmt.Errorf("output checks failed on seeds %v", wrong)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
