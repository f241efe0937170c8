package main

import (
	"fmt"
	"math/rand"
	"time"

	"hmc/internal/analyze"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// exploreJob is one core.Explore call of an explore-* workload, with the
// answer it is checked against.
type exploreJob struct {
	p       *prog.Program
	model   memmodel.Model
	workers int
	want    Answer
}

func (j exploreJob) name() string {
	n := j.p.Name + "/" + j.model.Name()
	if j.workers > 1 {
		n += fmt.Sprintf("/workers=%d", j.workers)
	}
	return n
}

// Closed-form answers, derived from each program's shape without the
// explorer. SB(n), LB(n) and inc(n,k) are also stated in internal/gen.

// incAnswer: (nk)!/(k!)^n: every interleaving of n threads' k
// fetch-adds is a distinct coherence order. No update is ever lost.
func incAnswer(n, k int) Answer {
	d := 1
	for i := 0; i < n; i++ {
		d *= factorial(k)
	}
	return Answer{Allowed: false, Executions: factorial(n*k) / d, Source: "closed form (nk)!/(k!)^n"}
}

// sbAnswer: under a store-buffer model each of SB(n)'s n reads sees 0 or
// 1 independently, so there are 2^n executions, all-zero among them.
func sbAnswer(n int) Answer {
	return Answer{Allowed: true, Executions: pow2(n), Source: "closed form 2^n"}
}

// lbAnswer: under arm each of LB(n)'s n reads sees 0 or 1 independently
// (po∪rf cycles allowed), so there are 2^n executions, all-one among them.
func lbAnswer(n int) Answer {
	return Answer{Allowed: true, Executions: pow2(n), Source: "closed form 2^n"}
}

// iriwAnswer: IRIW(n) has one write per location and 4n unordered plain
// reads; arm orders none of them, so each read independently sees 0 or
// 1: 2^(4n) executions, and the opposite-order outcome is among them.
func iriwAnswer(n int) Answer {
	return Answer{Allowed: true, Executions: pow2(4 * n), Source: "closed form 2^(4n)"}
}

// spinlockAnswer: in SpinlockN(n) every thread exchanges 1 into the lock
// once. The lock's coherence order is the n exchanges in some thread order
// (n! ways) with each acquirer's release placed after its exchange. The
// first exchange acquires; before each of the other n-1 the current holder
// has either released (the exchange acquires) or not (it fails), and the
// last holder releases at the end: n!·2^(n-1) executions. With lw fences
// around the critical section imm orders it after the acquiring exchange
// and before the release, so each acquirer reads the previous acquirer's
// counter and no update is lost. The axiomatic enumerator agrees for n=2
// and n=3 (4 and 24 executions; the self-test checks n=2), and cannot
// enumerate n=4 in minutes.
func spinlockAnswer(n int) Answer {
	return Answer{Allowed: false, Executions: factorial(n) * pow2(n-1), Source: "closed form n!*2^(n-1)"}
}

// exploreJobs builds the job list of an explore-* workload. Its first
// job is the one core.parallel_speedup times with one and two workers.
func exploreJobs(workload string, recorded map[string]Answer) ([]exploreJob, error) {
	type spec struct {
		p       *prog.Program
		model   string
		workers int
		want    Answer
	}
	var specs []spec
	switch workload {
	case "explore-revisit":
		pet := gen.Peterson(eg.FenceLW)
		petAnswer, ok := recorded[pairKey(pet.Name, "imm")]
		if !ok {
			return nil, fmt.Errorf("no recorded answer for %s under imm", pet.Name)
		}
		specs = []spec{
			{gen.IncN(3, 3), "sc", 1, incAnswer(3, 3)},
			{gen.IncN(3, 3), "imm", 1, incAnswer(3, 3)},
			{gen.SpinlockN(4, eg.FenceLW), "imm", 1, spinlockAnswer(4)},
			{pet, "imm", 1, petAnswer},
		}
	case "explore-consistency":
		specs = []spec{
			{gen.SBN(12), "tso", 1, sbAnswer(12)},
			{gen.SBN(12), "pso", 1, sbAnswer(12)},
			{gen.IRIWN(3), "arm", 1, iriwAnswer(3)},
			{gen.LBN(10), "arm", 1, lbAnswer(10)},
			{gen.SBN(12), "tso", 2, sbAnswer(12)},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	jobs := make([]exploreJob, len(specs))
	for i, s := range specs {
		m, err := memmodel.ByName(s.model)
		if err != nil {
			return nil, err
		}
		jobs[i] = exploreJob{p: s.p, model: m, workers: s.workers, want: s.want}
	}
	return jobs, nil
}

// setupExplore is the explore workloads' set-up: generate the programs,
// validate and statically analyse them, and warm the explorer with a
// short bounded run of each job.
func setupExplore(workload string, recorded map[string]Answer) ([]exploreJob, error) {
	jobs, err := exploreJobs(workload, recorded)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if err := j.p.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name(), err)
		}
		_ = j.p.Fingerprint()
		_ = analyze.Analyze(j.p).Lint(j.model.Name())
		if _, err := core.Explore(j.p, core.Options{Model: j.model, MaxExecutions: warmupExecs}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.name(), err)
		}
	}
	return jobs, nil
}

// warmupExecs bounds each job's warm-up exploration during set-up.
const warmupExecs = 64

// checkResult verifies an explorer result against the job's answer: the
// run must be exhaustive, never stuck, and match the answer.
func checkResult(name string, res *core.Result, want Answer) error {
	switch {
	case res == nil:
		return fmt.Errorf("%s: no result", name)
	case res.Interrupted:
		return fmt.Errorf("%s: interrupted", name)
	case res.Truncated:
		return fmt.Errorf("%s: truncated (%s)", name, res.TruncatedReason)
	case res.StuckReads != 0:
		return fmt.Errorf("%s: %d stuck reads", name, res.StuckReads)
	}
	if msg := want.check(res.Executions, res.ExistsCount); msg != "" {
		return fmt.Errorf("%s: %s", name, msg)
	}
	return nil
}

// tally counts checked jobs and failures, printing each failure.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Printf("FAIL %v\n", err)
	}
}

// jobTiming is one explore job's measured run.
type jobTiming struct {
	wall time.Duration
	res  *core.Result
}

// runExplorePass runs every job once in a seeded order and checks each
// verdict.
func runExplorePass(jobs []exploreJob, rng *rand.Rand, t *tally) []jobTiming {
	var out []jobTiming
	for _, i := range rng.Perm(len(jobs)) {
		j := jobs[i]
		start := time.Now()
		res, err := core.Explore(j.p, core.Options{Model: j.model, Workers: j.workers})
		wall := time.Since(start)
		if err == nil {
			err = checkResult(j.name(), res, j.want)
		}
		t.record(err)
		out = append(out, jobTiming{wall: wall, res: res})
	}
	return out
}

// measureExplore is the untraced run of an explore workload: whole passes
// over the job list until the time is up. Each metric is the median over
// passes of the pass's own figure, so one disturbed pass does not move
// it. A pass holds only 4 or 5 verdicts, so its slowest verdict stands
// in for the tail: verdict_p99_ms is the median of the passes' maxima.
func measureExplore(jobs []exploreJob, seed int64, seconds int, t *tally) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	budget := time.Duration(seconds) * time.Second
	var execRate, jobRate, p50, slowest []float64
	start := time.Now()
	for time.Since(start) < budget {
		var execs int
		var busy time.Duration
		var lat []float64
		for _, jt := range runExplorePass(jobs, rng, t) {
			busy += jt.wall
			lat = append(lat, ms(jt.wall))
			if jt.res != nil {
				execs += jt.res.Executions
			}
		}
		execRate = append(execRate, ratio(float64(execs), busy.Seconds()))
		jobRate = append(jobRate, ratio(float64(len(lat)), busy.Seconds()))
		p50 = append(p50, median(lat))
		slowest = append(slowest, percentile(lat, 1))
	}
	return map[string]float64{
		"execs_per_s":    median(execRate),
		"jobs_per_s":     median(jobRate),
		"verdict_p50_ms": median(p50),
		"verdict_p99_ms": median(slowest),
	}
}
