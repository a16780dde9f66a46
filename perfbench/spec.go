package main

import (
	"bytes"
	"encoding/json"
)

// metricSpec names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured length of one run. Setup, checks and the
// per-layer section come on top; a whole run stays under a minute.
const runSeconds = 25

// workloadSpecs lists the workloads in the order the spread command and the
// README use. Each one stresses different layers; see README.md.
var workloadSpecs = []workloadSpec{
	{"offline-toxic", "compute-bound batch cascade, full model and top-K on Toxic text features; no serving, store or cache on the path"},
	{"serve-point", "single-row HTTP predictions on Music with local tables and the budgeted feature cache; the serving layer dominates"},
	{"serve-remote", "64-row HTTP predictions on Music behind remote store clients with 1ms latency; store round trips dominate; no cache, no cascade (F3)"},
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; README.md says what each means per workload. Timings
// are at nominal machine speed (calib.go). Bounds come from ten-seed
// spreads (README.md): at nominal speed timings spread up to about 0.08
// between runs on a shared 2-vCPU machine, so they take the largest bound
// allowed, three times that.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"full_rows_per_s", "1/s", "higher", 0.25},
	{"topk_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p90_us", "us", "lower", 0.25},
	{"accuracy", "ratio", "higher", 0.1},
	{"live_heap_mib", "MiB", "lower", 0.1},
}

// opNodes is the union of the Toxic and Music graphs' operator nodes. A
// workload reports 0 for the nodes its own pipeline does not have.
var opNodes = []string{
	"clean", "tok", "word_ngrams", "word_tfidf", "char_ngrams", "char_tfidf", "stats",
	"user_features", "song_features", "genre_features", "artist_features", "context_features",
	"concat",
}

// maxIFVs is the widest pipeline's IFV count (Music's five lookups).
const maxIFVs = 5

// perLayer are the traced run's metrics. Each one names a layer of the
// program; README.md maps each to the end-to-end metric it should move.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"core.optimize_s", "s", "lower", 0},
		{"artifact.save_s", "s", "lower", 0},
		{"artifact.load_s", "s", "lower", 0},
		{"serving.deploy_s", "s", "lower", 0},
		{"artifact.kib", "KiB", "lower", 0},
		{"traced.rows_per_s", "1/s", "higher", 0},
		{"traced.p50_us", "us", "lower", 0},
		{"traced.mean_us", "us", "lower", 0},
		{"machine.speed", "ratio", "higher", 0},
	}
	for _, n := range opNodes {
		m = append(m, metricSpec{"ops." + n + ".ns_per_row", "ns", "lower", 0})
	}
	m = append(m,
		metricSpec{"weld.features_ns_per_row", "ns", "lower", 0},
		metricSpec{"weld.allocs_per_row", "count", "lower", 0},
		metricSpec{"model.full_ns_per_row", "ns", "lower", 0},
		metricSpec{"cascade.small_ns_per_row", "ns", "lower", 0},
		metricSpec{"cascade.resume_ns_per_row", "ns", "lower", 0},
		metricSpec{"cascade.small_only_frac", "ratio", "higher", 0},
		metricSpec{"topk.ns_per_query", "ns", "lower", 0},
		metricSpec{"topk.subset_rows", "count", "lower", 0},
		metricSpec{"topk.precision", "ratio", "higher", 0},
		metricSpec{"core.point_ns", "ns", "lower", 0},
		metricSpec{"core.call_us", "us", "lower", 0},
		metricSpec{"serving.wire_us", "us", "lower", 0},
		metricSpec{"serving.noop_us", "us", "lower", 0},
		metricSpec{"serving.allocs_per_request", "count", "lower", 0},
		metricSpec{"cache.hit_rate", "ratio", "higher", 0},
		metricSpec{"store.requests_per_row", "count", "lower", 0},
		metricSpec{"store.mget_us", "us", "lower", 0},
		metricSpec{"store.hedges_per_request", "count", "lower", 0},
		metricSpec{"store.retries_per_request", "count", "lower", 0},
		metricSpec{"core.plan.threshold", "ratio", "lower", 0},
		metricSpec{"core.plan.small_ifvs", "bitmask", "lower", 0},
	)
	for i := 0; i < maxIFVs; i++ {
		m = append(m, metricSpec{"cache.capacity." + string(rune('0'+i)), "count", "higher", 0})
	}
	return append(m, metricSpec{"unattributed.frac", "ratio", "lower", 0})
}()

// benchmarkJSON renders BENCHMARK.json from the definitions above, so the
// file and the program cannot disagree on names, units or bounds.
func benchmarkJSON() ([]byte, error) {
	type perLayerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]perLayerSpec, len(perLayer))
	for i, m := range perLayer {
		pl[i] = perLayerSpec{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   pl,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
