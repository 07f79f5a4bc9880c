package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/compile"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The served program: a 5-level chain with 800 facts, 40 rules and 6 base
// predicates, 30% of the facts polyinstantiated. Its seed is fixed, and
// is the program the ROADMAP's measurements used: generated programs differ
// in cost by more than the benchmark's bounds, so a program drawn from
// --seed would make runs of the same code disagree. --seed draws the
// request streams.
const (
	programSeed = 7
	dbName      = "bench"
	numLevels   = 5
	numFacts    = 800
	numRules    = 40
	numPreds    = 6
)

var modes = []string{"fir", "opt", "cau"}

func programSource() string {
	return workload.ProgramSource(workload.ProgramConfig{Levels: numLevels, Facts: numFacts,
		Rules: numRules, Preds: numPreds, Seed: programSeed, Poly: 0.3})
}

// sessionSpec is one of the 15 subjects: a clearance and a belief mode.
// Session i has clearance level i/3 and mode modes[i%3].
type sessionSpec struct {
	level int
	mode  string
}

func sessionSpecs() []sessionSpec {
	var out []sessionSpec
	for l := 0; l < numLevels; l++ {
		for _, m := range modes {
			out = append(out, sessionSpec{level: l, mode: m})
		}
	}
	return out
}

// serverConfig is multilogd's flag defaults with a durable WAL: admission on
// at 64 cost units, a 4096-entry result cache, fsync=always.
func serverConfig(store *wal.Store) server.Config {
	return server.Config{
		MaxSessions:        256,
		CacheEntries:       4096,
		QueryTimeout:       10 * time.Second,
		CheckpointInterval: 30 * time.Second,
		CheckpointEvery:    1024,
		MaxInflight:        64,
		WAL:                store,
	}
}

// instance is one running server with its listener, client and sessions.
type instance struct {
	dir      string
	src      string
	store    *wal.Store
	srv      *server.Server
	hs       *http.Server
	served   chan error
	client   *server.Client
	tr       *http.Transport
	tokens   []string          // client sessions, indexed like sessionSpecs
	sessions []*server.Session // in-process sessions, same order

	warmWrites []writeEntry // the warm-up's acknowledged writes
}

// startInstance generates the program, opens a fresh WAL in a new data
// directory under work, loads the program through recovery (parse, lint,
// log) and serves it on a loopback listener. The client shares two
// connections among the callers.
func startInstance(work string) (*instance, error) {
	dir, err := os.MkdirTemp(work, "data-")
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir, src: programSource()}
	store, rec, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		in.close()
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	in.store = store
	in.srv = server.New(serverConfig(store))
	if err := in.srv.Recover(rec, map[string]string{dbName: in.src}); err != nil {
		in.close()
		return nil, fmt.Errorf("loading program: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.hs = &http.Server{Handler: in.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	in.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	in.client = server.NewClient("http://"+ln.Addr().String(), &http.Client{Timeout: time.Minute, Transport: in.tr})
	ctx := context.Background()
	for i, sp := range sessionSpecs() {
		req := server.OpenRequest{DB: dbName, Subject: fmt.Sprintf("s%d", i),
			Clearance: fmt.Sprintf("l%d", sp.level), Mode: sp.mode}
		resp, err := in.client.Open(ctx, req)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("opening session %d: %w", i, err)
		}
		in.tokens = append(in.tokens, resp.Session)
		sess, _, err := in.srv.Open(req)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("opening in-process session %d: %w", i, err)
		}
		in.sessions = append(in.sessions, sess)
	}
	return in, nil
}

// stop shuts the listener down and closes the WAL without a final
// checkpoint, as a crash after the last acknowledged write would leave it.
func (in *instance) stop() error {
	var errs []error
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, in.hs.Shutdown(ctx))
		cancel()
		if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		in.hs = nil
		in.tr.CloseIdleConnections()
	}
	if in.store != nil {
		errs = append(errs, in.store.Close())
		in.store = nil
	}
	return errors.Join(errs...)
}

// close stops the instance and removes its data directory.
func (in *instance) close() {
	_ = in.stop() // best effort: the directory goes next
	_ = os.RemoveAll(in.dir)
}

// setup builds one ready-to-measure instance: program, load, sessions and
// warm-up. It returns the instance and how long that took. Every call starts
// from an empty compiled-plan cache, as a fresh daemon process would.
func (b *bench) setup(ctx context.Context) (*instance, time.Duration, error) {
	compile.DefaultCache.InvalidateAll()
	start := time.Now()
	in, err := startInstance(b.work)
	if err != nil {
		return nil, 0, err
	}
	if err := b.warm(ctx, in); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return in, time.Since(start), nil
}
