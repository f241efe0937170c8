package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"hmc/internal/core"
	"hmc/internal/faultinject"
	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// chaosSource is the workload for the committed-plan test: 9 writes over
// 3 threads = 9!/(3!·3!·3!) = 1680 interleavings — enough executions to
// journal checkpoints around the injected fault, small enough for -race.
const chaosSource = "name chaos-writes\n" +
	"T0: W x 1 ; W x 2 ; W x 3\n" +
	"T1: W x 11 ; W x 12 ; W x 13\n" +
	"T2: W x 21 ; W x 22 ; W x 23\n" +
	"exists x=3\n"

// chaosCounters extracts the deterministic counters of a result — the
// ones the paper's tables report — as bytes, so equivalence is asserted
// byte-for-byte, not field-by-field.
func chaosCounters(t *testing.T, r *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]int64{
		"executions":         int64(r.Executions),
		"blocked":            int64(r.Blocked),
		"exists":             int64(r.ExistsCount),
		"states":             int64(r.States),
		"memo_hits":          int64(r.MemoHits),
		"revisits_tried":     int64(r.RevisitsTried),
		"revisits_taken":     int64(r.RevisitsTaken),
		"consistency_checks": int64(r.ConsistencyChecks),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosPlanJournalSyncFault runs one journaled job through the
// committed fault plan (testdata/chaos-plan.json: one journal fsync
// error). The job must finish with counters byte-identical to a
// fault-free run, and the journal must have survived the failed fsync
// degraded and counted.
func TestChaosPlanJournalSyncFault(t *testing.T) {
	plan, err := faultinject.LoadPlan("testdata/chaos-plan.json")
	if err != nil {
		t.Fatalf("committed chaos plan: %v", err)
	}
	p, err := litmus.Parse(chaosSource)
	if err != nil {
		t.Fatal(err)
	}

	base := mustNew(t, Config{Workers: 1, CacheSize: -1})
	defer base.Shutdown(context.Background())
	bv, err := base.Submit(SubmitRequest{Program: p, Model: "sc", Source: chaosSource})
	if err != nil {
		t.Fatal(err)
	}
	if bv = waitState(t, base, bv.ID); bv.State != StateDone || bv.Result == nil {
		t.Fatalf("baseline job: state=%s err=%q", bv.State, bv.Err)
	}

	s := mustNew(t, Config{
		Workers:              1,
		CacheSize:            -1,
		JournalDir:           t.TempDir(),
		CheckpointEveryExecs: 200,
		ChaosPlan:            plan,
	})
	defer s.Shutdown(context.Background())
	v, err := s.Submit(SubmitRequest{Program: p, Model: "sc", Source: chaosSource})
	if err != nil {
		t.Fatal(err)
	}
	if v = waitState(t, s, v.ID); v.State != StateDone || v.Result == nil {
		t.Fatalf("chaos job: state=%s err=%q", v.State, v.Err)
	}
	if want, got := chaosCounters(t, bv.Result), chaosCounters(t, v.Result); string(want) != string(got) {
		t.Errorf("counters diverged under the fault plan:\nbaseline: %s\nchaos:    %s", want, got)
	}
	if !v.Result.Exhaustive() {
		t.Error("chaos run did not explore exhaustively")
	}
	// sync_err_at [2] lands on the job's submit record (ordinals are
	// 1-based; 1 is the open-time snapshot).
	if s.Metrics().JournalWriteErrors.Load() == 0 {
		t.Error("hmcd_journal_write_errors_total = 0, want the injected fsync failure counted")
	}
}

// TestJournalDegradedRecovery exercises the journal's degraded mode at
// the file boundary: an injected ENOSPC on one append flips the journal
// degraded (counted, classified), the record still lands in the live
// map, and the next clean append restores durability.
func TestJournalDegradedRecovery(t *testing.T) {
	plan := &faultinject.Plan{
		Seed: 7,
		// Write ordinals are 1-based: 1 is the open-time compaction
		// snapshot, 2 the first append.
		Journal: &faultinject.FileFaults{WriteErrAt: []int64{2}},
	}
	errs := 0
	j, _, err := openJournalWith(t.TempDir(), 0, journalHooks{
		Wrap:         func(f journalFile) journalFile { return faultinject.WrapFile(f, plan, nil) },
		OnWriteError: func(error) { errs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()

	j.submit("job-000001", SubmitRequest{Test: "SB", Model: "sc"})
	if degraded, why := j.degradedState(); !degraded || why != "disk full (ENOSPC)" {
		t.Fatalf("after injected ENOSPC: degraded=%v why=%q, want true / disk full (ENOSPC)", degraded, why)
	}
	if errs != 1 {
		t.Fatalf("OnWriteError fired %d times, want 1", errs)
	}
	if len(j.takeLive()) != 1 {
		t.Fatal("the failed append must still land in the live map (in-memory journal)")
	}

	j.submit("job-000002", SubmitRequest{Test: "MP", Model: "sc"})
	if degraded, _ := j.degradedState(); degraded {
		t.Fatal("a clean append must clear the degraded state")
	}
	if errs != 1 {
		t.Fatalf("OnWriteError fired %d times after recovery, want still 1", errs)
	}
}

// TestReadyzReportsJournalDegraded: a journal stuck degraded (every
// write failing) keeps the service serving — /readyz stays 200 — but the
// body and the metrics say so.
func TestReadyzReportsJournalDegraded(t *testing.T) {
	plan := &faultinject.Plan{
		Seed: 7,
		// Ordinal 1 (the open-time snapshot) must succeed or New fails;
		// every append after it hits ENOSPC.
		Journal: &faultinject.FileFaults{WriteErrAt: []int64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
	}
	s := mustNew(t, Config{Workers: 1, JournalDir: t.TempDir(), ChaosPlan: plan})
	defer s.Shutdown(context.Background())

	v, err := s.Submit(SubmitRequest{Program: mustTest(t, "SB"), Model: "sc", Test: "SB"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz = %d while journal-degraded, want 200 (still serving)", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, "ENOSPC") {
		t.Errorf("/readyz body does not report the degraded journal: %s", body)
	}
	if s.Metrics().JournalWriteErrors.Load() == 0 {
		t.Error("hmcd_journal_write_errors_total = 0, want the failed appends counted")
	}
}

func mustTest(t *testing.T, name string) *prog.Program {
	t.Helper()
	tc, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("unknown corpus test %q", name)
	}
	return tc.P
}
