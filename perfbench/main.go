// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks every answer the program gives, and
// prints as its last line one JSON object with the run's end-to-end metrics
// (or, with --trace 1, its per-layer metrics). See README.md.
//
//	bash perfbench/run.sh --workload serve-point --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload serve-point --seconds 25 --spread 10
//	bash perfbench/run.sh --describe > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"willump"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: offline-toxic, serve-point or serve-remote")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", runSeconds, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	spread := flag.Int("spread", 0, "run the workload this many times in fresh processes (seeds 1..N) and print each metric's quartiles")
	describe := flag.Bool("describe", false, "print BENCHMARK.json and exit")
	kern := flag.String("kernel", "", "run as the reference-kernel child process (calib.go)")
	flag.Parse()

	if *kern != "" {
		if err := serveKernel(*kern); err != nil {
			fatal(err)
		}
		return
	}
	if *describe {
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; want one of %s", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	if *spread > 0 {
		if err := runSpread(*name, *spread, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	printMachine()
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	out := make([]string, len(workloadSpecs))
	for i, s := range workloadSpecs {
		out[i] = s.Name
	}
	return out
}

// printMachine records what the numbers were measured on, including how
// coarse short sleeps are here: an arrival schedule cannot be kept finer
// than this, which is why load is closed-loop.
func printMachine() {
	var sl []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		sl = append(sl, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	fmt.Printf("machine: %s/%s cpus=%d gomaxprocs=%d go=%s sleep(100us) p50=%.0fus\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), median(sl))
}

func runWorkload(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	ctx := context.Background()
	compute, err := startKernel("compute")
	if err != nil {
		return nil, err
	}
	defer compute.stop()
	k := compute
	if w.serve {
		if k, err = startKernel("http"); err != nil {
			return nil, err
		}
		defer k.stop()
	}

	var envs []*env
	defer func() {
		for _, e := range envs {
			e.close()
		}
	}()
	for i := 0; i < w.datasets; i++ {
		e, err := w.open(dataSeed(seed, i, w.datasets))
		if err != nil {
			return nil, err
		}
		envs = append(envs, e)
	}
	// Set-up is compute: the compute kernel runs before and after each
	// one, and the median of those runs scales setup_s.
	var deps []*deployment
	defer func() {
		for _, d := range deps {
			d.close()
		}
	}()
	var setupSpeeds []float64
	readSpeed := func() error {
		s, err := compute.speed()
		setupSpeeds = append(setupSpeeds, s)
		return err
	}
	for i := 0; i < w.setups; i++ {
		if err := readSpeed(); err != nil {
			return nil, err
		}
		d, err := setup(ctx, w, envs[i%len(envs)])
		deps = append(deps, d)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := readSpeed(); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(err error) {
		if err != nil && res.Correct {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "check failed:", err)
		}
	}
	var accs, precs []float64
	for i, d := range deps {
		fmt.Printf("plan of set-up %d: %s\n", i+1, planString(d.o))
		if err := prepare(ctx, w, d); err != nil {
			return nil, err
		}
		fail(d.checkErr)
		accs, precs = append(accs, d.acc), append(precs, d.prec)
	}
	acc, prec := mean(accs), mean(precs)
	fail(checkAtLeast("accuracy", acc, accuracyFloor))
	fail(checkAtLeast("top-K precision", prec, w.precisionFloor))

	m, err := measure(ctx, w, deps, k, seconds, traced)
	if err != nil {
		return nil, err
	}
	m.summarize()
	printLatency(m.lat)
	heap := liveHeapMiB()
	for _, p := range m.phases() {
		res.Attempted += p.calls
		res.Failed += p.failed
		fail(p.checkErr)
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "operation failed:", p.firstErr)
		}
	}
	if len(deps[0].env.stores) > 0 {
		var degraded, opens int64
		for _, d := range firstPerDataset(deps) {
			ss, _ := d.o.FeatureStoreStats()
			degraded += ss.Degraded
			opens += ss.BreakerOpens
		}
		fail(checkStoreHealth(degraded, opens))
	}

	var setups []float64
	for _, dd := range deps {
		setups = append(setups, dd.times.total().Seconds())
	}
	fmt.Printf("as measured: setup_s=%.4f rows_per_s=%.1f full_rows_per_s=%.1f topk_per_s=%.2f\n",
		median(setups), median(m.served.rowRates), median(m.full.rowRates), median(m.topk.callRates))
	fmt.Printf("machine speed: set-up (compute kernel) %.3f, rounds (%s kernel) %.3f, quartiles %.3f..%.3f\n",
		median(setupSpeeds), k.name, m.speed, quantile(m.speeds, 0.25), quantile(m.speeds, 0.75))
	e2e := map[string]float64{
		"setup_s":         median(setups) * median(setupSpeeds),
		"rows_per_s":      m.nominal(m.served.rowRates),
		"requests_per_s":  m.nominal(m.served.callRates),
		"full_rows_per_s": m.nominal(m.full.rowRates),
		"topk_per_s":      m.nominal(m.topk.callRates),
		"p50_us":          m.lat.p50,
		"p90_us":          m.lat.p90,
		"accuracy":        acc,
		"live_heap_mib":   heap,
	}
	want := endToEnd
	values := e2e
	if traced {
		want = perLayer
		values, err = layers(ctx, w, deps, m)
		if err != nil {
			return nil, err
		}
		values["topk.precision"] = prec
	}
	for _, s := range want {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	if len(values) != len(want) {
		return nil, fmt.Errorf("measured %d metrics, the benchmark defines %d", len(values), len(want))
	}
	if !traced {
		printMetrics(res)
	}
	return res, nil
}

// accuracyFloor is the label check's floor, well under what every seed
// measures on both datasets (README.md): a miss means the method broke.
const accuracyFloor = 0.6

// planString reports the plan the run served with: the cascade threshold,
// the small model's IFVs and each IFV's feature-cache capacity. Plans come
// from timing measurements taken during Optimize, so they can differ
// between identical runs.
func planString(o *willump.Optimized) string {
	t := "none"
	if o.Cascade != nil {
		t = fmt.Sprint(o.Cascade.Threshold)
	}
	var small []int
	if o.Approx != nil {
		small = o.Approx.Efficient
	}
	var caps []string
	for _, s := range o.Prog.CacheSpecs() {
		caps = append(caps, fmt.Sprintf("ifv%d=%d", s.IFV, s.Capacity))
	}
	return fmt.Sprintf("threshold=%s small_ifvs=%v cache=[%s]", t, small, strings.Join(caps, " "))
}

// printLatency prints the served calls' latency tail with its sample
// count: a percentile is only reported with at least ten samples beyond it.
func printLatency(l latency) {
	fmt.Printf("served calls at nominal speed: n=%d p50=%.1fus p90=%.1fus", l.n, l.p50, l.p90)
	if beyond := float64(l.n) * 0.01; beyond >= 10 {
		fmt.Printf(" p99=%.1fus (%.0f beyond)", l.p99, beyond)
	}
	if beyond := float64(l.n) * 0.001; beyond >= 10 {
		fmt.Printf(" p999=%.1fus (%.0f beyond)", l.p999, beyond)
	}
	fmt.Println()
}

func printMetrics(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-16s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}
