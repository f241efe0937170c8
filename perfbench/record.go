package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"hmc/internal/axenum"
	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/operational"
	"hmc/internal/prog"
)

// record computes the answers table for every (program, model) pair
// service-mix can submit — the corpus pairs without a hand-verified
// execution count and gen.Random(0..randomPool-1) under all models — plus
// the explore-revisit job that has no closed form. Answers come from the
// herd-style axiomatic enumerator (execution count and verdict) and, for
// sc/tso/pso, the operational store-buffer machines (verdict); neither
// shares code with the DFS explorer's search. Each pair also gets an
// estimate of how long the portfolio service takes to answer it, which
// service-mix stratifies its random draws by. A pair that no engine
// decides within the timeout is left out of the table, and the benchmark
// does not submit it.
//
//	go run . -record answers.json
func record(path string, timeout time.Duration) error {
	type pair struct {
		p     *prog.Program
		model string
	}
	var pairs []pair
	for _, t := range litmus.Corpus() {
		for _, m := range memmodel.Names() {
			if _, ok := t.Executions[m]; !ok {
				pairs = append(pairs, pair{t.P, m})
			}
		}
	}
	for s := int64(0); s < randomPool; s++ {
		p := gen.Random(s)
		for _, m := range memmodel.Names() {
			pairs = append(pairs, pair{p, m})
		}
	}
	// The explore-revisit job without a closed form.
	pairs = append(pairs, pair{gen.Peterson(eg.FenceLW), "imm"})
	out := map[string]Answer{}
	for i, pr := range pairs {
		a, ok := independentAnswer(pr.p, pr.model, timeout)
		if ok {
			out[pairKey(pr.p.Name, pr.model)] = a
		} else {
			fmt.Fprintf(os.Stderr, "undecided: %s under %s\n", pr.p.Name, pr.model)
		}
		if i%200 == 0 {
			fmt.Fprintf(os.Stderr, "recorded %d/%d pairs\n", i, len(pairs))
		}
	}
	// One pair per line, in key order, so a re-recording diffs by pair.
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		kj, _ := json.Marshal(k)      // a string always marshals
		aj, _ := json.Marshal(out[k]) // so does an Answer
		fmt.Fprintf(&buf, "%s: %s", kj, aj)
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write answers: %w", err)
	}
	fmt.Fprintf(os.Stderr, "recorded %d of %d pairs to %s\n", len(out), len(pairs), path)
	return nil
}

// operationalLevels maps the models that have an operational machine.
var operationalLevels = map[string]operational.Level{
	"sc": operational.SC, "tso": operational.TSO, "pso": operational.PSO,
}

// independentAnswer decides p under model without the DFS explorer, and
// estimates how long the portfolio service holds the verdict.
func independentAnswer(p *prog.Program, model string, timeout time.Duration) (Answer, bool) {
	var a Answer
	m, err := memmodel.ByName(model)
	if err != nil {
		return a, false
	}
	spec := backend.Spec{Model: model}
	var crossCheck time.Duration // the slowest cross-checker the portfolio runs
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	start := time.Now()
	ax, err := axenum.Explore(p, axenum.Options{Model: m, Context: ctx})
	if (&backend.Axenum{}).Applicable(p, spec) == nil {
		crossCheck = time.Since(start)
	}
	cancel()
	if err == nil && !ax.Truncated && !ax.Interrupted {
		a = Answer{Allowed: ax.ExistsCount > 0, Executions: ax.Consistent, Source: "axenum", Bound: model == "relaxed"}
	}
	if level, ok := operationalLevels[model]; ok {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		op, err := operational.Explore(p, operational.Options{Level: level, Memo: true, Context: ctx})
		if (&backend.Operational{}).Applicable(p, spec) == nil {
			crossCheck = max(crossCheck, time.Since(start))
		}
		cancel()
		if err == nil && !op.Truncated && !op.Interrupted {
			if a.Source != "" && !a.Bound && a.Allowed != (op.ExistsCount > 0) {
				fmt.Fprintf(os.Stderr, "axenum and operational disagree on %s under %s\n", p.Name, model)
				return Answer{}, false
			}
			a = a.merge(Answer{Allowed: op.ExistsCount > 0, Executions: -1, Source: "operational"})
		}
	}
	// The verdict waits for the DFS anchor and for the cross-checkers, but
	// for those at most the grace window after the anchor's win.
	start = time.Now()
	if _, err := core.Explore(p, core.Options{Model: m}); err != nil {
		return Answer{}, false
	}
	dfs := time.Since(start)
	a.CostMS = ms(max(dfs, min(crossCheck, dfs+backend.DefaultGrace)))
	return a, a.Source != ""
}
