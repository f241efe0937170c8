// Command perfbench is the repository's benchmark: it runs one named
// workload for a time budget, checks every verdict against an answer the
// DFS explorer did not produce, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones (untraced run); with
// --trace 1 they are the per-layer ones, from a separate traced run that
// also writes its spans to a JSON-lines file. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload explore-revisit --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hmc/internal/memmodel"
)

// answersJSON holds verdicts recorded by engines other than the DFS
// explorer (record.go), so the benchmark checks the explorer against
// answers it did not produce.
//
//go:embed answers.json
var answersJSON []byte

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []string{"explore-revisit", "explore-consistency", "service-mix"}

// Set-up repetitions: set-up is timed this many times per run and the
// median reported.
const (
	exploreSetups = 5
	serviceSetups = 3
)

// traceBlocks is how many service-mix traffic blocks a traced run drives,
// once untraced and once traced: one full cycle through the cost strata,
// so the grace-bound pairs are among them.
const traceBlocks = blockCycle

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloads))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	rec := flag.String("record", "", "record independent answers to this file and exit")
	flag.Parse()
	if *rec != "" {
		if err := record(*rec, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1, buildDir())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// buildDir is where the benchmark keeps its temporary files: the
// directory the build uses, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// run executes one workload and returns its checked result.
func run(workload string, seed int64, seconds int, traced bool, tmpRoot string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	var recorded map[string]Answer
	if err := json.Unmarshal(answersJSON, &recorded); err != nil {
		return nil, fmt.Errorf("parse answers.json: %w", err)
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	var t tally
	var vals map[string]float64
	var err error
	defs := endToEnd
	switch {
	case workload == "service-mix" && !traced:
		vals, err = serviceMixRun(seed, seconds, recorded, tmpRoot, &t)
	case workload == "service-mix":
		defs = perLayer
		vals, err = serviceMixTraced(seed, recorded, tmpRoot, &t)
	case !traced:
		vals, err = exploreRun(workload, seed, seconds, recorded, &t)
	default:
		defs = perLayer
		vals, err = exploreTraced(workload, seed, recorded, tmpRoot, &t)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	if t.attempted == 0 {
		return nil, fmt.Errorf("no job was checked")
	}
	m, err := collect(defs, vals)
	if err != nil {
		return nil, err
	}
	printTable(workload, traced, m, t)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// printTable prints the metrics for people, with fail_ratio.
func printTable(workload string, traced bool, m map[string]metricValue, t tally) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, traced=%v, %d CPUs, %s\n", workload, traced, runtime.NumCPU(), runtime.Version())
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Printf("  %-36s %14.4f ratio (%d of %d jobs)\n", "fail_ratio", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	if traced {
		exact, sampled := m["memmodel.share"].Value, m["memmodel.sampled_share"].Value
		verdict := "agree"
		if math.Abs(exact-sampled) > 0.05 {
			verdict = "DISAGREE"
		}
		fmt.Printf("  memmodel share: exact %.3f, sampled consistency phase %.3f: %s within 5 points\n", exact, sampled, verdict)
	}
}

// timeSetup runs setup n times and returns the median duration.
func timeSetup(n int, setup func() error) (float64, error) {
	var d []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(start).Seconds())
	}
	return median(d), nil
}

// exploreRun is the untraced run of an explore workload.
func exploreRun(workload string, seed int64, seconds int, recorded map[string]Answer, t *tally) (map[string]float64, error) {
	var jobs []exploreJob
	setup, err := timeSetup(exploreSetups, func() (err error) {
		jobs, err = setupExplore(workload, recorded)
		return err
	})
	if err != nil {
		return nil, err
	}
	vals := measureExplore(jobs, seed, seconds, t)
	vals["setup_s"] = setup
	return vals, nil
}

// exploreTraced is the traced run of an explore workload: an untraced
// and a traced pass over the job list, the parallel-speedup pair, the
// per-call layer costs and one pass through the service.
func exploreTraced(workload string, seed int64, recorded map[string]Answer, tmpRoot string, t *tally) (map[string]float64, error) {
	jobs, err := setupExplore(workload, recorded)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	calls := shuffled(jobs, rng)
	out := map[string]float64{}

	var plain coreTotals
	walls := untracedCalls(calls, t, &plain)
	out["core.parallel_speedup"] = parallelSpeedup(jobs[0], calls, walls, t)

	tr := newTracer()
	wl := tr.id()
	wlStart := tr.now()
	var traced coreTotals
	tracedWall := tracedCalls(tr, wl, calls, t, &traced)
	out["obs.trace_overhead_ratio"] = ratio(float64(tracedWall), float64(plain.wall))
	coreLayers(&plain, &traced, out)

	// The same jobs through the service, one client.
	items := make([]trafficItem, len(calls))
	for i, c := range calls {
		items[i] = trafficItem{p: c.p, model: c.model.Name(), want: c.want}
	}
	if err := servicePass(tr, wl, items, 1, tmpRoot, t, out); err != nil {
		return nil, err
	}
	tr.add(wl, 0, "workload "+workload, wlStart, tr.now())
	return out, writeTrace(tr, tmpRoot, workload, seed)
}

// parallelSpeedup is the Workers-1 wall over the Workers-2 wall of the
// pair job. When the list holds that job with Workers: 2 (SB(12)/tso on
// explore-consistency), both walls come from the untraced pass;
// otherwise the job is run once more with Workers: 2.
func parallelSpeedup(pair exploreJob, calls []exploreJob, walls []time.Duration, t *tally) float64 {
	var w1, w2 time.Duration
	for i, c := range calls {
		if c.p.Name != pair.p.Name || c.model.Name() != pair.model.Name() {
			continue
		}
		if c.workers <= 1 {
			w1 = walls[i]
		} else {
			w2 = walls[i]
		}
	}
	if w2 == 0 {
		two := pair
		two.workers = 2
		var tot coreTotals
		w2 = untracedCalls([]exploreJob{two}, t, &tot)[0]
	}
	return ratio(float64(w1), float64(w2))
}

// servicePass drives items through a fresh service with the given number
// of clients, checks every verdict, records the service spans under
// parent (unless tr is nil) and fills the service and backend metrics.
func servicePass(tr *tracer, parent int64, items []trafficItem, clients int, tmpRoot string, t *tally, out map[string]float64) error {
	before := runtime.NumGoroutine()
	bs, err := newBenchService(tmpRoot)
	if err != nil {
		return err
	}
	next := items
	jobs := runClients(bs.svc, clients, func() (trafficItem, bool) {
		if len(next) == 0 {
			return trafficItem{}, false
		}
		it := next[0]
		next = next[1:]
		return it, true
	})
	for _, j := range jobs {
		t.record(checkJob(j))
		if tr != nil {
			recordServiceSpans(tr, parent, j)
		}
	}
	serviceLayers(bs.svc, jobs, out)
	return bs.close(before)
}

// recordServiceSpans adds one service job's spans: the job (Submit call
// to terminal view) with its submit, queue-wait, run and per-backend
// attempt children, the latter three from the job's own timestamps.
func recordServiceSpans(tr *tracer, parent int64, j svcJob) {
	job := tr.id()
	start := tr.at(j.start)
	tr.add(0, job, "service.submit", start, start+int64(j.submitDur))
	v := j.view
	if j.err == nil && !v.CacheHit && !v.Started.IsZero() {
		tr.add(0, job, "service.queue_wait", tr.at(v.Submitted), tr.at(v.Started))
		run := tr.add(0, job, "service.run", tr.at(v.Started), tr.at(v.Finished))
		for _, a := range v.Attestation {
			if a.Elapsed > 0 {
				s := tr.at(v.Started)
				tr.add(0, run, "backend."+a.Backend+" "+string(a.Status), s, s+int64(a.Elapsed))
			}
		}
	}
	tr.add(job, parent, "job "+j.item.name(), start, start+int64(j.latency))
}

// writeTrace computes self times and writes the spans next to the build.
func writeTrace(tr *tracer, tmpRoot, workload string, seed int64) error {
	path := filepath.Join(tmpRoot, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	if err := writeSpans(path, tr.finish(), tr.dropped.Load()); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// serviceMixRun is the untraced run of service-mix: closed-loop clients
// for the time budget against a service set up serviceSetups times (each
// earlier one shut down outside the timing).
func serviceMixRun(seed int64, seconds int, recorded map[string]Answer, tmpRoot string, t *tally) (map[string]float64, error) {
	var tr *traffic
	var bs *benchService
	var before int
	var setups []float64
	for i := 0; i < serviceSetups; i++ {
		if bs != nil {
			if err := bs.close(before); err != nil {
				return nil, err
			}
		}
		before = runtime.NumGoroutine()
		start := time.Now()
		var err error
		if tr, err = newTraffic(seed, recorded); err != nil {
			return nil, err
		}
		if bs, err = newBenchService(tmpRoot); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	start := time.Now()
	jobs := runClients(bs.svc, svcClients, streamFor(tr, time.Duration(seconds)*time.Second))
	wall := time.Since(start)
	vals := summarizeService(jobs, wall, t)
	vals["setup_s"] = median(setups)
	return vals, bs.close(before)
}

// serviceMixTraced is the traced run of service-mix: the same blocks
// untraced and traced on fresh services, then the explored jobs of the
// traced pass replayed through core.Explore for the core, memmodel,
// interp and eg layers.
func serviceMixTraced(seed int64, recorded map[string]Answer, tmpRoot string, t *tally) (map[string]float64, error) {
	traffic, err := newTraffic(seed, recorded)
	if err != nil {
		return nil, err
	}
	var items []trafficItem
	for i := 0; i < traceBlocks; i++ {
		items = append(items, traffic.nextBlock()...)
	}
	out := map[string]float64{}

	// Untraced pass: timing only.
	start := time.Now()
	if err := servicePass(nil, 0, items, svcClients, tmpRoot, t, map[string]float64{}); err != nil {
		return nil, err
	}
	plainWall := time.Since(start)

	tr := newTracer()
	wl := tr.id()
	wlStart := tr.now()
	start = time.Now()
	if err := servicePass(tr, wl, items, svcClients, tmpRoot, t, out); err != nil {
		return nil, err
	}
	out["obs.trace_overhead_ratio"] = ratio(float64(time.Since(start)), float64(plainWall))

	// Replay every distinct pair of the blocks through core.Explore.
	seen := map[string]bool{}
	var calls []exploreJob
	for _, it := range items {
		if seen[it.name()] {
			continue
		}
		seen[it.name()] = true
		m, err := memmodel.ByName(it.model)
		if err != nil {
			return nil, err
		}
		calls = append(calls, exploreJob{p: it.p, model: m, workers: 1, want: it.want})
	}
	var plain, traced, two coreTotals
	untracedCalls(calls, t, &plain)
	tracedCalls(tr, wl, calls, t, &traced)
	calls2 := append([]exploreJob(nil), calls...)
	for i := range calls2 {
		calls2[i].workers = 2
	}
	untracedCalls(calls2, t, &two)
	out["core.parallel_speedup"] = ratio(float64(plain.wall), float64(two.wall))
	coreLayers(&plain, &traced, out)
	tr.add(wl, 0, "workload service-mix", wlStart, tr.now())
	return out, writeTrace(tr, tmpRoot, "service-mix", seed)
}
