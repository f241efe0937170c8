package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "TX",
		Title:   "demo",
		Columns: []string{"name", "count"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("alpha", 12)
	tb.AddRow("b", 3)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TX — demo", "name", "alpha", "12", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow("x,y", `he said "hi"`)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("T99", Options{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestAllExperimentsQuick smoke-runs every experiment in quick mode and
// checks experiment-specific invariants.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range Experiments() {
		tb, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		var buf bytes.Buffer
		if err := tb.Render(&buf); err != nil {
			t.Errorf("%s: render: %v", id, err)
		}
		switch id {
		case "T1":
			if !strings.Contains(strings.Join(tb.Notes, " "), "0 verdict mismatches") {
				t.Errorf("T1 reports mismatches: %v", tb.Notes)
			}
			for _, row := range tb.Rows {
				for _, cell := range row {
					if strings.Contains(cell, "(!)") {
						t.Errorf("T1 verdict mismatch in row %v", row)
					}
				}
			}
		case "T7":
			if !strings.Contains(strings.Join(tb.Notes, " "), "total memo hits across all programs: ") {
				t.Errorf("T7 does not report memo hits: %v", tb.Notes)
			}
		case "T8":
			// The annotation row must be forbidden under rc11 and
			// observable under imm.
			for _, row := range tb.Rows {
				if strings.HasPrefix(row[0], "MP+rel+acq") {
					if row[1] != "no" || row[len(row)-1] != "yes" {
						t.Errorf("T8 compilation row wrong: %v", row)
					}
				}
			}
		case "T9":
			for _, row := range tb.Rows {
				switch row[0] {
				case "inc(2)", "peterson+full", "SB+ffs":
					for _, cell := range row[1:] {
						if cell != "robust" {
							t.Errorf("T9: %s must be robust everywhere: %v", row[0], row)
						}
					}
				case "SB+pos":
					for _, cell := range row[1:] {
						if cell == "robust" {
							t.Errorf("T9: SB must not be robust: %v", row)
						}
					}
				}
			}
		case "T11":
			for _, row := range tb.Rows {
				if strings.HasSuffix(row[0], ",1)") && row[4] != "1" {
					t.Errorf("T11: %s must collapse to a single orbit: %v", row[0], row)
				}
			}
		case "T13":
			// The local-rw family is where pruning must pay: strictly
			// fewer consistency checks and revisit candidates. The sb
			// control row must show zero skips and identical work.
			for _, row := range tb.Rows {
				checks, _ := strconv.Atoi(row[3])
				checksSA, _ := strconv.Atoi(row[4])
				revisits, _ := strconv.Atoi(row[5])
				revisitsSA, _ := strconv.Atoi(row[6])
				switch {
				case strings.HasPrefix(row[0], "LocalRW"):
					if checksSA >= checks || revisitsSA >= revisits {
						t.Errorf("T13: pruning did not reduce work on %s: %v", row[0], row)
					}
					if row[7] == "0/0/0" {
						t.Errorf("T13: no skips recorded on %s: %v", row[0], row)
					}
				case strings.HasPrefix(row[0], "SB"):
					if row[7] != "0/0/0" || checksSA != checks || revisitsSA != revisits {
						t.Errorf("T13: control row must be untouched by pruning: %v", row)
					}
				}
			}
		case "T14":
			// Every default-cadence row on a multi-execution program must
			// carry the kill/resume accounting, and it must add up to the
			// straight run's total.
			resumes := 0
			for _, row := range tb.Rows {
				if row[4] != "2000" {
					continue
				}
				execs, _ := strconv.Atoi(row[2])
				if execs < 2 {
					continue
				}
				saved, err1 := strconv.Atoi(row[8])
				does, err2 := strconv.Atoi(row[9])
				if err1 != nil || err2 != nil || saved+does != execs {
					t.Errorf("T14: kill/resume accounting broken: %v", row)
				}
				resumes++
			}
			if resumes == 0 {
				t.Error("T14: no row exercised the kill/resume leg")
			}
		case "T15":
			// Fast-cadence rows on long-running programs must deliver
			// periodic snapshots, not just the guaranteed final one; every
			// row delivers at least the final snapshot.
			periodic := false
			for _, row := range tb.Rows {
				snaps, err := strconv.Atoi(row[5])
				if err != nil || snaps < 1 {
					t.Errorf("T15: row delivered no snapshots: %v", row)
				}
				if row[4] == "1ms" && snaps > 1 {
					periodic = true
				}
			}
			if !periodic {
				t.Error("T15: no row delivered a periodic (non-final) snapshot at the 1ms cadence")
			}
		case "T5":
			// The ablation must miss at least one execution on LB(2).
			missedAny := false
			for _, row := range tb.Rows {
				if row[len(row)-1] != "0" {
					missedAny = true
				}
				if row[0] == "LB(2)" && row[4] != "false" {
					t.Errorf("ablation observed the LB weak outcome: %v", row)
				}
			}
			if !missedAny {
				t.Error("ablation missed nothing — the T5 claim is empty")
			}
		}
	}
}
