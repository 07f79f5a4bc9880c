package server

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/workload"
)

// TestCompiledPlanCacheOnServer pins the server ↔ plan-cache contract:
// preparing a reduction goes through the compiled engine, a second server
// loading the same program reuses the cached plan (the restart/replica
// case), fact-only writes leave plans cached, and a rule write drops the
// program's stranded plans. The counters are process-wide, so every
// assertion is a delta against a baseline snapshot.
func TestCompiledPlanCacheOnServer(t *testing.T) {
	const query = "l1[payroll(K: cost -C-> V)]"

	s := newIncServer(t, Config{CacheEntries: -1})
	sess := openSess(t, s, "l1", "opt")

	base := compile.DefaultCache.Stats()
	runQuery(t, s, sess, query)
	afterFirst := compile.DefaultCache.Stats()
	if afterFirst.Hits+afterFirst.Misses <= base.Hits+base.Misses {
		t.Fatalf("first query never consulted the plan cache: %+v -> %+v", base, afterFirst)
	}

	// A second server loading the same program reduces to the same rule
	// set, so preparing the same clearance must hit the cached plan
	// without compiling.
	s2 := newIncServer(t, Config{CacheEntries: -1})
	sess2 := openSess(t, s2, "l1", "opt")
	runQuery(t, s2, sess2, query)
	afterSecond := compile.DefaultCache.Stats()
	if afterSecond.Hits <= afterFirst.Hits {
		t.Errorf("same program on a second server missed the plan cache: %+v -> %+v", afterFirst, afterSecond)
	}
	if afterSecond.Compiles != afterFirst.Compiles {
		t.Errorf("same program recompiled: %d -> %d compiles", afterFirst.Compiles, afterSecond.Compiles)
	}

	// Fact-only write: the reduced rule set is unchanged, so no plan is
	// invalidated and nothing recompiles.
	runUpdate(t, s, sess, "l0[emp(carol: salary -l0-> low)].", false)
	runQuery(t, s, sess, query)
	afterFact := compile.DefaultCache.Stats()
	if afterFact.Invalidations != afterSecond.Invalidations {
		t.Errorf("fact-only write invalidated plans: %d -> %d", afterSecond.Invalidations, afterFact.Invalidations)
	}
	if afterFact.Compiles != afterSecond.Compiles {
		t.Errorf("fact-only write recompiled plans: %d -> %d", afterSecond.Compiles, afterFact.Compiles)
	}

	// Rule write: the program's cached plans are stranded under dead keys
	// and must be dropped.
	runUpdate(t, s, sess, "l1[audit(K: cost -l1-> V)] :- l0[dept(K: head -C-> V)] << opt.", false)
	afterRule := compile.DefaultCache.Stats()
	if afterRule.Invalidations <= afterFact.Invalidations {
		t.Errorf("rule write did not invalidate plans: %d -> %d", afterFact.Invalidations, afterRule.Invalidations)
	}

	// The counters are API: /v1/stats carries them.
	if st := s.Stats(); st.Compiled.Capacity == 0 {
		t.Errorf("StatsResponse.Compiled not populated: %+v", st.Compiled)
	}
}

// TestFactWriteRerunsCompiledPlan is the write path's cost invariant,
// asserted on the route and not only on the answers: a fact write rebuilds
// every warm clearance by re-running its cached compiled plan — one plan
// hit each, no miss, no compile, no interpreter engine on the new snapshot
// — and the answers stay byte-equal to a fresh full re-derivation at every
// clearance × mode.
func TestFactWriteRerunsCompiledPlan(t *testing.T) {
	shape := workload.ProgramConfig{Levels: 4, Facts: 200, Rules: 12, Preds: 4, Seed: 7, Poly: 0.3}
	s := New(Config{CacheEntries: -1})
	if err := s.Load("test", workload.ProgramSource(shape)); err != nil {
		t.Fatal(err)
	}
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	var levels []lattice.Label
	for i := 0; i < shape.Levels; i++ {
		levels = append(levels, lattice.Label(workload.Level(i)))
	}
	queries := []string{"L[p0(K: a -C-> V)]", "L[p3(K: a -C-> V)]", "L[q0(K: d -C-> V)]", "L[q5(K: d -C-> V)]"}
	modes := []multilog.Mode{multilog.ModeFir, multilog.ModeOpt, multilog.ModeCau}
	sessions := map[lattice.Label]*Session{}
	for _, u := range levels {
		sessions[u] = openSess(t, s, string(u), "")
		runQuery(t, s, sessions[u], queries[0]) // warm the clearance
	}
	warm := func() map[lattice.Label]*multilog.Reduction {
		snap := prog.current()
		snap.redMu.RLock()
		defer snap.redMu.RUnlock()
		return maps.Clone(snap.reductions)
	}
	for u, red := range warm() {
		if red.Counts() != nil {
			t.Fatalf("clearance %s was prepared by the interpreter before any write; the program must compile", u)
		}
	}

	before := compile.DefaultCache.Stats()
	runUpdate(t, s, sessions[levels[len(levels)-1]], "l1[p0(knew: a -l1-> v9)].", false)
	after := compile.DefaultCache.Stats()
	if got, want := after.Hits-before.Hits, int64(len(levels)); got != want {
		t.Errorf("fact write took %d plan hits, want one per warm clearance (%d)", got, want)
	}
	if after.Misses != before.Misses || after.Compiles != before.Compiles {
		t.Errorf("fact write missed the plan cache: misses %d -> %d, compiles %d -> %d",
			before.Misses, after.Misses, before.Compiles, after.Compiles)
	}
	reds := warm()
	if len(reds) != len(levels) {
		t.Fatalf("%d warm reductions after the write, want %d", len(reds), len(levels))
	}
	for u, red := range reds {
		if red.Counts() != nil {
			t.Errorf("clearance %s moved to the interpreter's incremental engine on a fact write", u)
		}
	}

	// Oracle: the interpreter's full derivation over the post-write database.
	db := prog.current().db
	for _, u := range levels {
		fresh, err := multilog.Reduce(db, u)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Prepare(context.Background(), resource.Limits{}); err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			for _, q := range queries {
				goals, err := multilog.ParseGoals(q)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := fresh.QueryPrepared(context.Background(), rewriteBelief(goals, m), resource.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := s.Query(context.Background(), sessions[u], QueryRequest{Query: q, Mode: string(m)})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resp.Answers, renderAnswers(want)) {
					t.Errorf("%s/%s %s: served answers differ from a fresh derivation\ngot:  %v\nwant: %v",
						u, m, q, resp.Answers, renderAnswers(want))
				}
			}
		}
	}
}
