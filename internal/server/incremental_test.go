package server

import (
	"context"
	"reflect"
	"testing"
)

// precisionProgram has two independent base predicates (emp, dept) and one
// derived predicate (payroll) that reads emp's optimistic beliefs — the
// dependency graph the cache-precision table below quantifies over.
const precisionProgram = `
	level(l0). level(l1). order(l0, l1).
	l0[emp(alice: salary -l0-> low)].
	l1[emp(alice: salary -l1-> mid)].
	l0[dept(eng: head -l0-> alice)].
	l1[payroll(K: cost -l1-> V)] :- l0[emp(K: salary -C-> V)] << opt.
`

func newIncServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Load("test", precisionProgram); err != nil {
		t.Fatal(err)
	}
	return s
}

func openSess(t *testing.T, s *Server, clearance, mode string) *Session {
	t.Helper()
	sess, _, err := s.Open(OpenRequest{Subject: "t", Clearance: clearance, Mode: mode, DB: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func runQuery(t *testing.T, s *Server, sess *Session, q string) *QueryResponse {
	t.Helper()
	resp, err := s.Query(context.Background(), sess, QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return resp
}

func runUpdate(t *testing.T, s *Server, sess *Session, clauses string, retract bool) *UpdateResponse {
	t.Helper()
	resp, err := s.Update(context.Background(), sess, UpdateRequest{Clauses: clauses}, retract)
	if err != nil {
		t.Fatalf("update %q: %v", clauses, err)
	}
	return resp
}

// TestCachePrecision pins the per-predicate invalidation contract: a write
// touching predicate p evicts every cached entry that depends on p (directly
// or through rules) and no entry independent of p. Rule writes evict
// everything.
func TestCachePrecision(t *testing.T) {
	queries := []string{
		"l0[emp(K: salary -C-> V)]",
		"l0[dept(K: head -C-> V)]",
		"l1[payroll(K: cost -C-> V)]",
	}
	cases := []struct {
		name        string
		clauses     string
		retract     bool
		incremental bool
		evicted     []bool // parallel to queries
	}{
		{
			name:        "dept write leaves emp and payroll cached",
			clauses:     "l0[dept(sales: head -l0-> bob)].",
			incremental: true,
			evicted:     []bool{false, true, false},
		},
		{
			name:        "emp write evicts emp and the derived payroll",
			clauses:     "l0[emp(carol: salary -l0-> low)].",
			incremental: true,
			evicted:     []bool{true, false, true},
		},
		{
			name:        "retract is as precise as assert",
			clauses:     "l0[dept(sales: head -l0-> bob)].",
			retract:     true,
			incremental: true,
			evicted:     []bool{false, true, false},
		},
		{
			name:        "rule write evicts everything",
			clauses:     "l1[extra(K: x -l1-> V)] :- l0[dept(K: head -C-> V)].",
			incremental: false,
			evicted:     []bool{true, true, true},
		},
	}
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Prime: miss then hit for every query.
			for _, q := range queries {
				runQuery(t, s, sess, q)
				if got := runQuery(t, s, sess, q); !got.Cached {
					t.Fatalf("prime %q: second query missed the cache", q)
				}
			}
			up := runUpdate(t, s, sess, tc.clauses, tc.retract)
			if up.Changed == 0 {
				t.Fatalf("update %q changed nothing", tc.clauses)
			}
			if up.Incremental != tc.incremental {
				t.Errorf("Incremental = %v, want %v", up.Incremental, tc.incremental)
			}
			if tc.incremental && len(up.ChangedPreds) == 0 {
				t.Errorf("incremental update reported no changed predicates")
			}
			for i, q := range queries {
				resp := runQuery(t, s, sess, q)
				if tc.evicted[i] && resp.Cached {
					t.Errorf("query %q served a stale cached answer after %q", q, tc.clauses)
				}
				if !tc.evicted[i] && !resp.Cached {
					t.Errorf("query %q was evicted by the independent write %q", q, tc.clauses)
				}
			}
		})
	}
}

// TestCachePrecisionObservesWrites double-checks precision is not staleness:
// after a write, the dependent query's fresh answer reflects it.
func TestCachePrecisionObservesWrites(t *testing.T) {
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "")
	q := "l0[dept(K: head -C-> V)]"
	before := runQuery(t, s, sess, q)
	runQuery(t, s, sess, q) // cached
	runUpdate(t, s, sess, "l0[dept(sales: head -l0-> bob)].", false)
	after := runQuery(t, s, sess, q)
	if after.Cached {
		t.Fatal("dependent entry survived the write")
	}
	if len(after.Answers) != len(before.Answers)+1 {
		t.Fatalf("write not visible: %d answers before, %d after", len(before.Answers), len(after.Answers))
	}
	// And the grown answer set is itself cached again.
	if got := runQuery(t, s, sess, q); !got.Cached || len(got.Answers) != len(after.Answers) {
		t.Fatalf("post-write answer not re-cached correctly (cached=%v, %d answers)", got.Cached, len(got.Answers))
	}
}

// TestServerAssertRetractMetamorphic is the write-path no-op property end to
// end: asserting a fact and retracting it leaves the database source
// byte-identical and every probe query's answers byte-identical, across all
// three belief modes and every clearance.
func TestServerAssertRetractMetamorphic(t *testing.T) {
	s := newIncServer(t, Config{})
	probes := []string{
		"L[emp(K: salary -C-> V)]",
		"l0[emp(K: salary -C-> V)]",
		"l1[payroll(K: cost -C-> V)]",
		"l0[dept(K: head -C-> V)]",
	}
	dbSource := func() string {
		s.progMu.RLock()
		defer s.progMu.RUnlock()
		return s.programs["test"].current().db.String()
	}
	type view struct{ clearance, mode string }
	var views []view
	for _, cl := range []string{"l0", "l1"} {
		for _, m := range []string{"fir", "opt", "cau"} {
			views = append(views, view{cl, m})
		}
	}
	collect := func() map[string][][]map[string]string {
		out := map[string][][]map[string]string{}
		for _, v := range views {
			sess := openSess(t, s, v.clearance, v.mode)
			key := v.clearance + "/" + v.mode
			for _, q := range probes {
				resp := runQuery(t, s, sess, q)
				out[key] = append(out[key], resp.Answers)
			}
		}
		return out
	}

	baseSrc := dbSource()
	baseAnswers := collect()

	writer := openSess(t, s, "l1", "")
	fact := "l1[emp(dave: salary -l1-> mid)]."
	if up := runUpdate(t, s, writer, fact, false); up.Changed != 1 {
		t.Fatalf("assert changed %d clauses, want 1", up.Changed)
	}
	midAnswers := collect()
	if reflect.DeepEqual(baseAnswers, midAnswers) {
		t.Fatal("assert was not observable through the probes")
	}
	if up := runUpdate(t, s, writer, fact, true); up.Changed != 1 {
		t.Fatalf("retract changed %d clauses, want 1", up.Changed)
	}

	if got := dbSource(); got != baseSrc {
		t.Errorf("assert-then-retract changed the database source\ngot:\n%s\nwant:\n%s", got, baseSrc)
	}
	if got := collect(); !reflect.DeepEqual(got, baseAnswers) {
		t.Errorf("assert-then-retract changed probe answers across modes/clearances")
	}
}

// TestUpdateAdvancesPreparedReductions pins the model-reuse half of the
// write path: a fact write must carry the warm per-clearance reductions into
// the new snapshot (rebuilt through the cached plan), not discard them.
func TestUpdateAdvancesPreparedReductions(t *testing.T) {
	s := newIncServer(t, Config{})
	for _, cl := range []string{"l0", "l1"} {
		runQuery(t, s, openSess(t, s, cl, ""), "l0[emp(K: salary -C-> V)]")
	}
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	warm := func() int {
		snap := prog.current()
		snap.redMu.RLock()
		defer snap.redMu.RUnlock()
		return len(snap.reductions)
	}
	if n := warm(); n != 2 {
		t.Fatalf("expected 2 warm reductions before the write, got %d", n)
	}
	writer := openSess(t, s, "l1", "")
	runUpdate(t, s, writer, "l0[emp(erin: salary -l0-> low)].", false)
	if n := warm(); n != 2 {
		t.Fatalf("fact write dropped warm reductions: %d remain, want 2", n)
	}
	// The rebuilt models must answer correctly (the new fact is visible).
	resp := runQuery(t, s, openSess(t, s, "l0", ""), "l0[emp(erin: salary -C-> V)]")
	if len(resp.Answers) != 1 {
		t.Fatalf("rebuilt reduction lost the written fact: %d answers", len(resp.Answers))
	}
}

// TestCachePrecisionAcrossClearances guards the conservative side: the
// invalidation set is clearance-independent, so a write by one session
// evicts dependent entries cached for other clearances too.
func TestCachePrecisionAcrossClearances(t *testing.T) {
	s := newIncServer(t, Config{})
	low := openSess(t, s, "l0", "")
	high := openSess(t, s, "l1", "")
	q := "l0[emp(K: salary -C-> V)]"
	for _, sess := range []*Session{low, high} {
		runQuery(t, s, sess, q)
		if got := runQuery(t, s, sess, q); !got.Cached {
			t.Fatal("prime query missed")
		}
	}
	runUpdate(t, s, high, "l0[emp(gail: salary -l0-> low)].", false)
	for i, sess := range []*Session{low, high} {
		resp := runQuery(t, s, sess, q)
		if resp.Cached {
			t.Errorf("session %d served stale answers after a cross-clearance write", i)
		}
		found := false
		for _, a := range resp.Answers {
			if a["K"] == "gail" {
				found = true
			}
		}
		if !found {
			t.Errorf("session %d does not see the written fact: %v", i, resp.Answers)
		}
	}
}
