package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hmc/internal/backend"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
	"hmc/internal/service"
)

// trafficItem is one service-mix submission with the answer its verdict
// is checked against.
type trafficItem struct {
	p      *prog.Program
	model  string
	want   Answer
	repeat bool
}

func (it trafficItem) name() string { return it.p.Name + "/" + it.model }

// Block composition: every block holds the whole corpus under all models,
// blockRandom random pairs and enough repeats of corpus pairs to make
// them a fifth of the block. The random pool, ordered by estimated service
// time, is cut into blockRandom·blockCycle strata of nearly equal size;
// each block draws one pair from every blockCycle-th stratum, and
// blockCycle consecutive blocks together draw once from every stratum.
const (
	randomBits  = 4
	cycleBits   = 3
	blockRandom = 1 << randomBits
	blockCycle  = 1 << cycleBits
	repeatShare = 0.2
)

// traffic generates service-mix submissions block by block from a seed.
type traffic struct {
	rng    *rand.Rand
	corpus []trafficItem
	// strata hold the recorded random pairs by estimated service time.
	// Sampling them systematically puts the cheap bulk and the tail —
	// pairs whose axenum run outlasts the portfolio's grace window among
	// it — into every run in the same proportion, whatever the seed.
	strata [][]trafficItem
	blocks int
}

// newTraffic builds the pools: the corpus pairs with an answer from the
// corpus tables or the recorded table, and the recorded random pairs.
func newTraffic(seed int64, recorded map[string]Answer) (*traffic, error) {
	tr := &traffic{rng: rand.New(rand.NewSource(seed))}
	for _, t := range litmus.Corpus() {
		for _, m := range memmodel.Names() {
			a, ok := corpusAnswer(t, m, recorded)
			if !ok {
				return nil, fmt.Errorf("no answer for corpus test %s under %s", t.Name, m)
			}
			tr.corpus = append(tr.corpus, trafficItem{p: t.P, model: m, want: a})
		}
	}
	var random []trafficItem
	for s := int64(0); s < randomPool; s++ {
		p := gen.Random(s)
		for _, m := range memmodel.Names() {
			if a, ok := recorded[pairKey(p.Name, m)]; ok { // else no engine but the explorer decides it
				random = append(random, trafficItem{p: p, model: m, want: a})
			}
		}
	}
	const nstrata = blockRandom * blockCycle
	if len(random) < nstrata {
		return nil, fmt.Errorf("recorded answers hold %d random pairs, need %d", len(random), nstrata)
	}
	for _, it := range append(append([]trafficItem(nil), tr.corpus...), random...) {
		if err := it.p.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", it.name(), err)
		}
	}
	sort.SliceStable(random, func(a, b int) bool { return random[a].want.CostMS < random[b].want.CostMS })
	for i := 0; i < nstrata; i++ {
		tr.strata = append(tr.strata, random[i*len(random)/nstrata:(i+1)*len(random)/nstrata])
	}
	return tr, nil
}

// nextBlock returns the next block of submissions: the corpus pairs in a
// seeded order, repeats of earlier corpus pairs at seeded positions, and
// blockRandom seeded draws from the block's strata at evenly spaced
// positions. Block b draws from strata phase, phase+blockCycle, … where
// phase runs through 0..blockCycle-1 in bit-reversed order, so any run of
// consecutive blocks samples the whole cost range evenly. Within a block
// the draws take their slots in bit-reversed order, so the costliest sit
// far apart and at the same places in every block: how often both
// clients wait out a grace window at once is then a property of the mix,
// not of the seed.
func (tr *traffic) nextBlock() []trafficItem {
	phase := int(bits.Reverse8(uint8(tr.blocks%blockCycle)) >> (8 - cycleBits))
	tr.blocks++
	light := append([]trafficItem(nil), tr.corpus...)
	tr.rng.Shuffle(len(light), func(a, b int) { light[a], light[b] = light[b], light[a] })
	nrep := int(float64(len(tr.corpus)+blockRandom) * repeatShare / (1 - repeatShare))
	for i := 0; i < nrep; i++ {
		at := 1 + tr.rng.Intn(len(light)-1)
		it := light[tr.rng.Intn(at)]
		it.repeat = true
		light = append(light[:at], append([]trafficItem{it}, light[at:]...)...)
	}
	block := make([]trafficItem, 0, len(light)+blockRandom)
	from := 0
	for slot := 0; slot < blockRandom; slot++ {
		to := (slot + 1) * len(light) / blockRandom
		block = append(block, light[from:to]...)
		from = to
		group := int(bits.Reverse8(uint8(slot)) >> (8 - randomBits))
		s := tr.strata[group*blockCycle+phase]
		block = append(block, s[tr.rng.Intn(len(s))])
	}
	return block
}

// svcJob is one completed service-mix submission.
type svcJob struct {
	item      trafficItem
	submitDur time.Duration // the Submit call
	latency   time.Duration // Submit call to terminal view
	start     time.Time     // client clock at Submit
	view      service.JobView
	err       error
}

// benchService is an in-process service with a temporary journal.
type benchService struct {
	svc *service.Service
	dir string
}

// newBenchService starts the service-mix service: portfolio on, journal,
// crash and quarantine directories under a fresh temporary directory,
// default cache, queue and worker settings.
func newBenchService(tmpRoot string) (*benchService, error) {
	dir, err := os.MkdirTemp(tmpRoot, "svc-")
	if err != nil {
		return nil, fmt.Errorf("service temp dir: %w", err)
	}
	svc, err := service.New(service.Config{
		Portfolio:     true,
		JournalDir:    filepath.Join(dir, "journal"),
		CrashDir:      filepath.Join(dir, "crashes"),
		QuarantineDir: filepath.Join(dir, "quarantine"),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service.New: %w", err)
	}
	return &benchService{svc: svc, dir: dir}, nil
}

// close shuts the service down, checks that nothing outlives it and
// removes its directory.
func (b *benchService) close(goroutinesBefore int) error {
	defer os.RemoveAll(b.dir)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := b.svc.Shutdown(ctx); err != nil {
		return fmt.Errorf("service shutdown: %w", err)
	}
	for _, v := range b.svc.Jobs() {
		if !v.State.Terminal() {
			return fmt.Errorf("job %s left in state %s after shutdown", v.ID, v.State)
		}
	}
	if n := b.svc.Metrics().InFlight.Load(); n != 0 {
		return fmt.Errorf("%d explorations in flight after shutdown", n)
	}
	// Goroutines that have returned may take a moment to be reaped.
	for deadline := time.Now().Add(5 * time.Second); ; {
		n := runtime.NumGoroutine()
		if n <= goroutinesBefore {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines left after shutdown, %d before the service", n, goroutinesBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitAndWait submits one item and waits for its terminal view.
func submitAndWait(svc *service.Service, it trafficItem) svcJob {
	j := svcJob{item: it, start: time.Now()}
	v, err := svc.Submit(service.SubmitRequest{Program: it.p, Model: it.model})
	j.submitDur = time.Since(j.start)
	if err == nil {
		seq := 0
		for !v.State.Terminal() {
			var ok bool
			if v, ok = svc.WaitProgress(context.Background(), v.ID, seq); !ok {
				err = fmt.Errorf("job %s vanished", v.ID)
				break
			}
			if v.Progress != nil {
				seq = v.Progress.Seq
			}
		}
	}
	j.latency = time.Since(j.start)
	j.view, j.err = v, err
	return j
}

// checkJob verifies a service verdict: the job is done (not failed,
// quarantined or cancelled), its result exhaustive and never stuck, and
// it matches the answer.
func checkJob(j svcJob) error {
	name := j.item.name()
	if j.err != nil {
		return fmt.Errorf("%s: %v", name, j.err)
	}
	if j.view.State != service.StateDone {
		return fmt.Errorf("%s: job %s ended %s: %s", name, j.view.ID, j.view.State, j.view.Err)
	}
	return checkResult(name, j.view.Result, j.item.want)
}

// runClients drives the service with closed-loop clients: each takes the
// next item, submits it and waits for the verdict before taking another.
// next returns false when the clients should stop.
func runClients(svc *service.Service, clients int, next func() (trafficItem, bool)) []svcJob {
	var mu sync.Mutex
	var done []svcJob
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				it, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				j := submitAndWait(svc, it)
				mu.Lock()
				done = append(done, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done
}

// svcClients is the number of concurrent closed-loop clients.
const svcClients = 2

// streamFor returns a next function serving tr's blocks, whole, until the
// time budget is spent: a block started before the deadline is finished,
// so every run serves complete blocks of the documented composition.
func streamFor(tr *traffic, budget time.Duration) func() (trafficItem, bool) {
	var block []trafficItem
	start := time.Now()
	return func() (trafficItem, bool) {
		if len(block) == 0 {
			if time.Since(start) >= budget {
				return trafficItem{}, false
			}
			block = tr.nextBlock()
		}
		it := block[0]
		block = block[1:]
		return it, true
	}
}

// summarizeService turns completed jobs into the end-to-end metrics and
// checks every verdict.
func summarizeService(jobs []svcJob, wall time.Duration, t *tally) map[string]float64 {
	var lat []float64
	execs := 0
	for _, j := range jobs {
		t.record(checkJob(j))
		lat = append(lat, ms(j.latency))
		if j.err == nil && !j.view.CacheHit && j.view.Result != nil {
			execs += j.view.Result.Executions
		}
	}
	return map[string]float64{
		"execs_per_s":    ratio(float64(execs), wall.Seconds()),
		"jobs_per_s":     ratio(float64(len(jobs)), wall.Seconds()),
		"verdict_p50_ms": percentile(lat, 0.50),
		"verdict_p99_ms": percentile(lat, 0.99),
	}
}

// backendNames are the portfolio's engines, anchor first.
var backendNames = []string{"dfs", "axenum", "operational"}

// serviceLayers computes the service and backend per-layer metrics from
// the jobs' views, attestations and the service counters.
func serviceLayers(svc *service.Service, jobs []svcJob, out map[string]float64) {
	var submit, wait, run, crossWait []float64
	elapsed := map[string][]float64{}
	wins := map[string]int{}
	timeouts := 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		v := j.view
		submit = append(submit, ms(j.submitDur))
		if v.CacheHit || v.Started.IsZero() {
			continue
		}
		wait = append(wait, ms(v.Started.Sub(v.Submitted)))
		run = append(run, ms(v.Finished.Sub(v.Started)))
		for _, a := range v.Attestation {
			if a.Status == backend.AttemptSkipped {
				continue
			}
			elapsed[a.Backend] = append(elapsed[a.Backend], ms(a.Elapsed))
			switch a.Status {
			case backend.AttemptWon:
				wins[a.Backend]++
				crossWait = append(crossWait, ms(v.Finished.Sub(v.Started)-a.Elapsed))
			case backend.AttemptTimeout:
				if a.Backend == "axenum" {
					timeouts++
				}
			}
		}
	}
	m := svc.Metrics()
	out["service.submit_ms_p50"] = percentile(submit, 0.5)
	out["service.submit_ms_p99"] = percentile(submit, 0.99)
	out["service.queue_wait_ms_p50"] = percentile(wait, 0.5)
	out["service.queue_wait_ms_p99"] = percentile(wait, 0.99)
	out["service.run_ms_p50"] = percentile(run, 0.5)
	out["service.run_ms_p99"] = percentile(run, 0.99)
	hits, misses := float64(m.CacheHits.Load()), float64(m.CacheMisses.Load())
	out["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	for _, b := range backendNames {
		out["backend."+b+".elapsed_ms_p50"] = percentile(elapsed[b], 0.5)
		out["backend."+b+".elapsed_ms_p99"] = percentile(elapsed[b], 0.99)
		out["backend."+b+".wins"] = float64(wins[b])
	}
	out["backend.axenum.timeouts"] = float64(timeouts)
	out["backend.crosscheck_wait_ms_p99"] = percentile(crossWait, 0.99)
}
