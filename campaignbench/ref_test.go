package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func mustRef(t *testing.T, workload string, seed int64) *RefFile {
	t.Helper()
	rf, ok, err := loadRef(refPath(".", workload, seed))
	if err != nil || !ok {
		t.Fatalf("reference %s seed %d: ok=%v err=%v", workload, seed, ok, err)
	}
	return rf
}

// TestReferencesCoverEveryRound checks that each checked-in reference
// holds every round a run can reach, with the round's parameters and
// one record per case.
func TestReferencesCoverEveryRound(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			rf := mustRef(t, w.Name, seed)
			if len(rf.Rounds) != w.MaxRounds {
				t.Errorf("%s seed %d: %d rounds, want %d", w.Name, seed, len(rf.Rounds), w.MaxRounds)
			}
			for r, rr := range rf.Rounds {
				if rr.Params != w.Params(seed, r) {
					t.Errorf("%s seed %d round %d: params %+v, want %+v", w.Name, seed, r, rr.Params, w.Params(seed, r))
				}
				if len(rr.Records) != w.CaseCount() {
					t.Errorf("%s seed %d round %d: %d records, want %d", w.Name, seed, r, len(rr.Records), w.CaseCount())
				}
			}
		}
	}
}

// TestAlteredReferenceFails runs round 0 of t4-cold through the measured
// path, checks it against the reference, then alters one reference
// record and expects the error rate to turn positive.
func TestAlteredReferenceFails(t *testing.T) {
	w, _ := workloadByName("t4-cold")
	ref := mustRef(t, w.Name, 1).Rounds[0].Records
	out, err := runWorker(w, w.Params(1, 0), modeMeasure, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if n := countFailed(out.Records, ref); n != 0 {
		t.Fatalf("%d of %d records differ from the reference", n, len(ref))
	}
	altered := append([]json.RawMessage(nil), ref...)
	altered[2] = json.RawMessage(strings.Replace(string(altered[2]), `"outcome":`, `"outcome":9`, 1))
	failed := countFailed(out.Records, altered)
	if rate := frac(float64(failed), float64(len(ref))); rate <= 0 {
		t.Fatalf("error rate %v after altering one reference record, want > 0", rate)
	}
	if failed != 1 {
		t.Errorf("%d records failed, want exactly the altered one", failed)
	}
	if n := countFailed(out.Records[:3], ref); n != len(ref)-3 {
		t.Errorf("missing records: %d failed, want %d", n, len(ref)-3)
	}
}

// TestTracedReplicaMatchesReference runs the traced replica of round 0
// of each cold workload and checks its records against the reference, so
// the replica cannot drift from the program's campaign path.
func TestTracedReplicaMatchesReference(t *testing.T) {
	for _, name := range []string{"t4-cold", "fuzz-guided"} {
		w, _ := workloadByName(name)
		out, err := runWorker(w, w.Params(2, 0), modeTraced, "")
		if err != nil {
			t.Fatal(err)
		}
		ref := mustRef(t, name, 2).Rounds[0].Records
		if n := countFailed(out.Records, ref); n != 0 {
			t.Errorf("%s: %d of %d traced records differ from the reference", name, n, len(ref))
		}
		a := Attribute(out.Trace.Spans, out.Trace.WallS)
		if a.Unattributed < 0 {
			t.Errorf("%s: negative unattributed time %v", name, a.Unattributed)
		}
		if a.Layers.get("exec").Calls == 0 {
			t.Errorf("%s: no exec spans", name)
		}
	}
}
