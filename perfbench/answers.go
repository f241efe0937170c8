package main

import (
	"fmt"

	"hmc/internal/litmus"
)

// randomPool is the number of gen.Random seeds service-mix draws from;
// answers.json covers every (seed, model) pair of the pool that an
// independent engine decides.
const randomPool = 300

// Answer is an expected verdict for one (program, model) pair.
// Executions is -1 when the source does not count executions. Bound
// marks an over-approximating source (axenum under the coherence-only
// "relaxed" model admits out-of-thin-air executions the constructive
// explorer never builds): the explorer's count must then be at most
// Executions, and a weak outcome it observes must be allowed.
type Answer struct {
	Allowed    bool   `json:"allowed"`
	Executions int    `json:"executions"`
	Bound      bool   `json:"bound,omitempty"`
	Source     string `json:"source"`
	// CostMS estimates how long the portfolio service holds the pair's
	// verdict (record.go). Only its rank matters: service-mix draws one
	// random pair per cost stratum in each block.
	CostMS float64 `json:"cost_ms,omitempty"`
}

// check compares an explorer result against the answer and returns a
// description of the mismatch, or "" when they agree.
func (a Answer) check(executions, existsCount int) string {
	allowed := existsCount > 0
	if a.Bound {
		if a.Executions >= 0 && executions > a.Executions {
			return fmt.Sprintf("executions %d exceed the %s bound %d", executions, a.Source, a.Executions)
		}
		if allowed && !a.Allowed {
			return fmt.Sprintf("weak outcome observed, %s forbids it", a.Source)
		}
		return ""
	}
	if allowed != a.Allowed {
		return fmt.Sprintf("allowed=%v, %s says %v", allowed, a.Source, a.Allowed)
	}
	if a.Executions >= 0 && executions != a.Executions {
		return fmt.Sprintf("executions %d, %s says %d", executions, a.Source, a.Executions)
	}
	return ""
}

// merge folds a second answer for the same pair into a: a count wins over
// none, and the sources are joined.
func (a Answer) merge(b Answer) Answer {
	if a.Source == "" {
		return b
	}
	if a.Executions < 0 {
		a.Executions = b.Executions
	}
	a.Source += "+" + b.Source
	return a
}

// pairKey names a (program, model) pair in answer tables.
func pairKey(program, model string) string { return program + "/" + model }

// corpusAnswer returns the corpus's hand-verified verdict for test t under
// model, merged with the recorded table; ok is false when neither has one.
func corpusAnswer(t litmus.Test, model string, recorded map[string]Answer) (Answer, bool) {
	var a Answer
	if allowed, ok := t.Allowed[model]; ok {
		a = Answer{Allowed: allowed, Executions: -1, Source: "corpus"}
		if n, ok := t.Executions[model]; ok {
			a.Executions = n
		}
	}
	if r, ok := recorded[pairKey(t.P.Name, model)]; ok && (a.Source == "" || a.Executions < 0) {
		a = a.merge(r)
	}
	return a, a.Source != ""
}

// factorial returns n! (n small).
func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// pow2 returns 2^n.
func pow2(n int) int { return 1 << n }
