package server

// Replication: the primary/follower faces of one Server.
//
// A primary is just a durable server that also serves its WAL over HTTP:
//
//	GET /v1/repl/snapshot        newest checkpoint frame (X-Repl-Seq header)
//	GET /v1/repl/stream?from=S   chunked WAL frames with Seq > S, then
//	                             heartbeats while idle; 410 when S has been
//	                             compacted into a checkpoint
//	GET /v1/repl/status          ReplicationStats (applied seq, lag, role)
//
// A follower runs with Config.Role = RoleFollower: it refuses writes with a
// typed *NotPrimaryError (HTTP 421, code "not-primary", carrying the
// primary's address), and the replication layer (internal/replica) feeds it
// records through ApplyReplicated, which mirrors each record into the
// follower's own WAL at the primary's sequence number and then applies it
// through the exact code path boot-time replay uses — so a follower's
// serving state, epochs included, is byte-for-byte the primary's, and a
// promoted follower (Promote) serves /v1/repl/stream from its own log with
// no translation.
//
// Streaming is fault-injectable: Config.StreamFaults is consulted once per
// outgoing frame (faultinject.ReplStreamFrame), which is how the
// cluster-chaos harness corrupts frames mid-flight, short-writes them, or
// SIGKILLs the primary mid-stream.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/faultinject"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// Role says whether a server accepts writes (primary) or mirrors a
// primary's log (follower).
type Role int

const (
	// RolePrimary accepts writes; the default.
	RolePrimary Role = iota
	// RoleFollower serves read-only queries and refuses writes with a typed
	// *NotPrimaryError until Promote flips it.
	RoleFollower
)

// String renders the role in flag/JSON syntax.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// NotPrimaryError rejects a write sent to a read replica. Primary carries
// the current primary's address so clients can follow the leader. Match
// with errors.As; maps to HTTP 421 "not-primary".
type NotPrimaryError struct {
	Primary string
}

func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return "server: not the primary: this node is a read replica"
	}
	return fmt.Sprintf("server: not the primary: writes go to %s", e.Primary)
}

// ReplCounters are the stream counters shared between the server's stats
// handlers and the replication layer that drives the follower.
type ReplCounters struct {
	LastHeardSeq       atomic.Uint64 // newest primary seq heard (header/heartbeat)
	FramesReceived     atomic.Int64
	BytesReceived      atomic.Int64
	Resumes            atomic.Int64
	SnapshotBootstraps atomic.Int64
	Rebootstraps       atomic.Int64 // diverged-state wipes + fresh bootstraps

	StreamsServed   atomic.Int64
	FramesSent      atomic.Int64
	SnapshotsServed atomic.Int64

	errMu         sync.Mutex
	lastStreamErr string
}

// SetStreamError records the most recent stream failure for /v1/stats.
func (c *ReplCounters) SetStreamError(msg string) {
	c.errMu.Lock()
	c.lastStreamErr = msg
	c.errMu.Unlock()
}

// StreamError returns the most recent stream failure ("" when healthy).
func (c *ReplCounters) StreamError() string {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.lastStreamErr
}

// HeardUpTo raises LastHeardSeq to seq (monotonic).
func (c *ReplCounters) HeardUpTo(seq uint64) {
	for {
		cur := c.LastHeardSeq.Load()
		if seq <= cur || c.LastHeardSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// RunCheckpointLoop runs the background checkpointer until ctx is done —
// for embedders (the follower node) that serve the handler themselves
// instead of through Serve, which starts it internally.
func (s *Server) RunCheckpointLoop(ctx context.Context) { s.checkpointLoop(ctx) }

// Role reports the server's current role; Promote can change it at runtime.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// PrimaryAddr is the advertised primary address (what *NotPrimaryError and
// /v1/repl/status carry).
func (s *Server) PrimaryAddr() string {
	s.primaryMu.Lock()
	defer s.primaryMu.Unlock()
	return s.primaryAddr
}

// SetPrimaryAddr re-targets the advertised primary (after a failover).
func (s *Server) SetPrimaryAddr(addr string) {
	s.primaryMu.Lock()
	s.primaryAddr = addr
	s.primaryMu.Unlock()
}

// Applied is the newest WAL seq applied to the serving state.
func (s *Server) Applied() uint64 {
	if s.Role() == RolePrimary && s.wal != nil {
		return s.wal.LastSeq()
	}
	return s.applied.Load()
}

// Repl exposes the shared replication counters.
func (s *Server) Repl() *ReplCounters { return &s.repl }

// MarkSynced declares the follower caught up: /v1/readyz flips to 200.
// A no-op once the node has diverged — a diverged follower must never
// re-enter rotation.
func (s *Server) MarkSynced() {
	if !s.diverged.Load() {
		s.synced.Store(true)
	}
}

// Synced reports whether the node considers itself caught up.
func (s *Server) Synced() bool { return s.synced.Load() }

// ErrDiverged marks a follower whose local WAL holds a record its serving
// state could not apply: the log position and the state no longer agree,
// and resuming the stream from the local seq would silently skip the
// record forever. Match with errors.Is; the replication layer halts on it.
var ErrDiverged = errors.New("server: follower state diverged from the primary")

// MarkDiverged permanently fails the node out of the fleet: synced goes
// (and stays) false, so /v1/readyz reports 503 "diverged" and the router's
// probes drop the node from read rotation and ack quorums. The only way
// back is a rebuild — wipe the data directory and re-bootstrap.
func (s *Server) MarkDiverged(reason string) {
	if s.diverged.CompareAndSwap(false, true) {
		s.synced.Store(false)
		s.repl.SetStreamError(reason)
		s.logf("follower DIVERGED; leaving rotation until rebuilt: %s", reason)
	}
}

// Diverged reports whether the node has been failed out by MarkDiverged.
func (s *Server) Diverged() bool { return s.diverged.Load() }

// ClearDiverged re-admits a node the rebootstrap-on-diverge path has just
// rebuilt from a primary snapshot: the mirrored-log/serving-state gap the
// divergence marked is gone along with the wiped state. Only that path may
// call it; MarkSynced starts working again afterwards.
func (s *Server) ClearDiverged() {
	if s.diverged.CompareAndSwap(true, false) {
		s.repl.SetStreamError("")
		s.logf("divergence cleared by rebootstrap")
	}
}

// divergedErr marks the node diverged and wraps err in ErrDiverged: the
// record is durably mirrored in the local WAL but absent from the serving
// state, the one gap the resume protocol cannot close.
func (s *Server) divergedErr(err error) error {
	s.MarkDiverged(err.Error())
	return fmt.Errorf("%w: %v", ErrDiverged, err)
}

// Promote flips a follower into the primary role: the write gate lifts and
// the node's own mirrored WAL — which holds the primary's records at the
// primary's seqs — becomes the log it serves to the remaining followers.
// Idempotent; returns the last local seq (what the new reign starts from).
func (s *Server) Promote() uint64 {
	if s.role.CompareAndSwap(int32(RoleFollower), int32(RolePrimary)) {
		s.synced.Store(true)
		s.SetPrimaryAddr("")
		s.logf("promoted to primary at seq %d", s.applied.Load())
	}
	if s.wal != nil {
		return s.wal.LastSeq()
	}
	return s.applied.Load()
}

// ApplyReplicated applies one record shipped from the primary: mirror it
// into the local WAL at the primary's seq (durable first), then apply it
// through the same parse/authorize/lint path the original write took, with
// the same cache invalidation. Called by the replication layer strictly in
// sequence order; a failure here means divergence and must halt the stream.
func (s *Server) ApplyReplicated(rec wal.Record) error {
	if s.Role() != RoleFollower {
		return fmt.Errorf("server: ApplyReplicated on a %s", s.Role())
	}
	if s.wal == nil {
		return fmt.Errorf("server: ApplyReplicated needs Config.WAL")
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.cfg.StreamFaults != nil &&
		s.cfg.StreamFaults(faultinject.ReplApplyRecord, s.applyEvN.Add(1)) == faultinject.FileErr {
		// Injected divergence: durably mirror the record, then fail the
		// apply — the mirrored-but-unappliable gap the resume protocol
		// cannot close, which only a rebootstrap recovers from.
		if err := s.wal.AppendMirror(rec); err != nil {
			return err
		}
		return s.divergedErr(fmt.Errorf("server: injected apply fault at replicated record %d", rec.Seq))
	}
	switch rec.Type {
	case wal.TypeLoad:
		var lr loadRecord
		if err := json.Unmarshal(rec.Payload, &lr); err != nil {
			return fmt.Errorf("server: decoding replicated load %d: %w", rec.Seq, err)
		}
		if err := s.wal.AppendMirror(rec); err != nil {
			return err
		}
		if err := s.installProgram(lr.DB, lr.Src, 1); err != nil {
			return s.divergedErr(fmt.Errorf("server: applying replicated load %d: %w", rec.Seq, err))
		}
		s.cache.Reset(lr.DB)
	case wal.TypeUpdate:
		var ur updateRecord
		if err := json.Unmarshal(rec.Payload, &ur); err != nil {
			return fmt.Errorf("server: decoding replicated update %d: %w", rec.Seq, err)
		}
		prog, err := s.program(ur.DB)
		if err != nil {
			return fmt.Errorf("server: replicated update %d: %w", rec.Seq, err)
		}
		mirrored := false
		commit := func() error {
			mirrored = true
			return s.wal.AppendMirror(rec)
		}
		epoch, changed, inv, err := prog.update(ur.Clauses, lattice.Label(ur.Clearance), ur.Retract, commit)
		if err != nil {
			err = fmt.Errorf("server: applying replicated update %d: %w", rec.Seq, err)
			if mirrored {
				// The record is in the local WAL but not in the serving
				// state: resuming from the local seq would skip it forever.
				return s.divergedErr(err)
			}
			return err
		}
		if !mirrored {
			// The primary never logs no-op updates, so changed==0 here means
			// divergence — but the seq stream must stay contiguous
			// regardless, so mirror the record before failing the node out.
			if err := s.wal.AppendMirror(rec); err != nil {
				return err
			}
			return s.divergedErr(fmt.Errorf("server: replicated update %d was a no-op here: follower state diverged", rec.Seq))
		}
		if changed > 0 {
			s.invalidate(ur.DB, epoch, inv)
		}
	default:
		return fmt.Errorf("server: replicated record %d has unknown type %d", rec.Seq, rec.Type)
	}
	s.applied.Store(rec.Seq)
	s.repl.HeardUpTo(rec.Seq)
	s.kickCheckpoint()
	return nil
}

// InstallSnapshot replaces the follower's entire serving state with a
// primary checkpoint covering seq: the bootstrap (and 410-recovery) path.
// The checkpoint is installed durably in the local WAL and the log is
// repositioned to seq, so a restart recovers the bootstrapped state without
// talking to the primary.
func (s *Server) InstallSnapshot(seq uint64, payload []byte) error {
	if s.Role() != RoleFollower {
		return fmt.Errorf("server: InstallSnapshot on a %s", s.Role())
	}
	if s.wal == nil {
		return fmt.Errorf("server: InstallSnapshot needs Config.WAL")
	}
	var cp checkpointPayload
	if err := json.Unmarshal(payload, &cp); err != nil {
		return fmt.Errorf("server: decoding snapshot: %w", err)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	keep := make(map[string]bool, len(cp.Databases))
	for _, db := range cp.Databases {
		if err := s.installProgram(db.Name, db.Src, db.Epoch); err != nil {
			return fmt.Errorf("server: installing %q from snapshot: %w", db.Name, err)
		}
		keep[db.Name] = true
		s.cache.Reset(db.Name)
	}
	s.progMu.Lock()
	for name := range s.programs {
		if !keep[name] {
			delete(s.programs, name)
			s.cache.Reset(name)
		}
	}
	s.progMu.Unlock()
	if err := s.wal.WriteCheckpoint(seq, payload); err != nil {
		return err
	}
	if err := s.wal.AdvanceTo(seq); err != nil {
		return err
	}
	s.applied.Store(seq)
	s.repl.HeardUpTo(seq)
	s.logf("installed snapshot at seq %d (%d database(s))", seq, len(cp.Databases))
	return nil
}

// streamBatch bounds how many records one ReadFrom pass ships before the
// handler flushes; streamHeartbeatEvery is the idle-stream heartbeat cadence
// (and the granularity at which a stream notices draining).
const streamBatch = 256

const streamHeartbeatEvery = 500 * 1000 * 1000 // 500ms in ns; avoids importing time twice

// handleReplSnapshot serves the newest checkpoint frame raw, cutting a
// fresh checkpoint first so a bootstrap never replays a long log tail. A
// primary with an empty log serves seq 0 and no body: bootstrap from
// nothing, stream from 0.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, _ *http.Request) error {
	defer s.bypass(admission.Replication).Done(0, false)
	if s.wal == nil {
		return &badRequestError{fmt.Errorf("replication requires a data directory")}
	}
	if s.recovering.Load() {
		return ErrRecovering
	}
	if err := s.Checkpoint(); err != nil {
		return err
	}
	seq, frame, err := s.wal.NewestCheckpoint()
	if err != nil {
		return err
	}
	s.repl.SnapshotsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Seq", strconv.FormatUint(seq, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(frame) //nolint:errcheck // headers are committed; the follower re-fetches on a short body
	return nil
}

// handleReplStream streams WAL frames with Seq > from, then heartbeats
// while idle. Compaction past `from` is a 410 (code "compacted"): the
// follower must re-bootstrap from the snapshot.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) error {
	defer s.bypass(admission.Replication).Done(0, false)
	if s.wal == nil {
		return &badRequestError{fmt.Errorf("replication requires a data directory")}
	}
	if s.recovering.Load() {
		return ErrRecovering
	}
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return &badRequestError{fmt.Errorf("bad from=%q: %w", q, err)}
		}
		from = v
	}
	// Probe compaction before committing the 200: the follower branches on
	// the status code.
	recs, err := s.wal.ReadFrom(from, streamBatch)
	if err != nil {
		return err // ErrCompacted maps to 410
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		return fmt.Errorf("server: response writer cannot stream")
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Last-Seq", strconv.FormatUint(s.wal.LastSeq(), 10))
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.repl.StreamsServed.Add(1)

	ctx := r.Context()
	cur := from
	for {
		for _, rec := range recs {
			if !s.writeStreamFrame(w, wal.EncodeFrame(rec)) {
				return nil
			}
			cur = rec.Seq
			s.repl.FramesSent.Add(1)
		}
		recs = nil // consumed; an idle heartbeat must not replay the batch
		fl.Flush()
		if s.draining.Load() || ctx.Err() != nil {
			return nil
		}
		wctx, cancel := context.WithTimeout(ctx, streamHeartbeatEvery)
		werr := s.wal.WaitFor(wctx, cur+1)
		cancel()
		switch {
		case werr == nil:
		case errors.Is(werr, context.DeadlineExceeded):
			// Idle: heartbeat the current last seq so the follower can tell
			// "caught up" from "stalled".
			hb := wal.EncodeFrame(wal.Record{Seq: s.wal.LastSeq(), Type: wal.TypeHeartbeat})
			if !s.writeStreamFrame(w, hb) {
				return nil
			}
			fl.Flush()
			continue
		default:
			return nil // client gone, store closing, or store broken
		}
		recs, err = s.wal.ReadFrom(cur, streamBatch)
		if err != nil {
			// Compacted under a live stream (checkpoint pruned our position):
			// drop the connection; the follower reconnects and gets the 410.
			return nil
		}
	}
}

// writeStreamFrame writes one frame to the stream, consulting the
// stream-fault plan first. Returns false when the stream must end (write
// failure or injected fault).
func (s *Server) writeStreamFrame(w http.ResponseWriter, frame []byte) bool {
	switch act := s.fireStreamFault(); act {
	case faultinject.FileErr:
		return false // drop the connection before the frame
	case faultinject.FileShortWrite:
		w.Write(frame[:len(frame)/2]) //nolint:errcheck // torn frame by design
		return false
	case faultinject.FileCorrupt:
		frame = append([]byte(nil), frame...)
		frame[len(frame)-1] ^= 0x01 // any body bit: CRC32C catches it downstream
	case faultinject.FileKill, faultinject.FileKillTorn:
		faultinject.KillNow()
	}
	_, err := w.Write(frame)
	return err == nil
}

// fireStreamFault consults the stream fault plan at the per-frame probe.
func (s *Server) fireStreamFault() faultinject.FileAction {
	if s.cfg.StreamFaults == nil {
		return faultinject.FileOK
	}
	n := s.streamEvN.Add(1)
	return s.cfg.StreamFaults(faultinject.ReplStreamFrame, n)
}

// handleReplStatus serves the raw replication view; the router polls this
// for write acks, lag and promotion decisions.
func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	defer s.bypass(admission.Replication).Done(0, false)
	st := s.replicationStats()
	if st == nil {
		st = &ReplicationStats{Role: s.Role().String(), Synced: s.Synced(),
			QueueDepth: int64(s.adm.QueueDepth())}
	}
	writeJSON(w, http.StatusOK, st) //nolint:errcheck // best-effort status body
}

// replicationStats builds the node's replication view; nil for a plain
// non-durable primary (replication needs a WAL).
func (s *Server) replicationStats() *ReplicationStats {
	role := s.Role()
	if role == RolePrimary && s.wal == nil {
		return nil
	}
	rs := &ReplicationStats{
		Role:            role.String(),
		Primary:         s.PrimaryAddr(),
		AppliedSeq:      s.Applied(),
		Synced:          s.synced.Load(),
		Diverged:        s.diverged.Load(),
		LastStreamError: s.repl.StreamError(),
		QueueDepth:      int64(s.adm.QueueDepth()),

		Resumes:            s.repl.Resumes.Load(),
		SnapshotBootstraps: s.repl.SnapshotBootstraps.Load(),
		Rebootstraps:       s.repl.Rebootstraps.Load(),
		FramesReceived:     s.repl.FramesReceived.Load(),
		BytesReceived:      s.repl.BytesReceived.Load(),
		StreamsServed:      s.repl.StreamsServed.Load(),
		FramesSent:         s.repl.FramesSent.Load(),
		SnapshotsServed:    s.repl.SnapshotsServed.Load(),
	}
	switch role {
	case RolePrimary:
		rs.LastHeardSeq = rs.AppliedSeq
	case RoleFollower:
		rs.LastHeardSeq = s.repl.LastHeardSeq.Load()
		if rs.LastHeardSeq > rs.AppliedSeq {
			rs.LagRecords = int64(rs.LastHeardSeq - rs.AppliedSeq)
		}
	}
	s.progMu.RLock()
	if len(s.programs) > 0 {
		rs.Epochs = make(map[string]uint64, len(s.programs))
		for name, p := range s.programs {
			rs.Epochs[name] = p.current().epoch
		}
	}
	s.progMu.RUnlock()
	return rs
}
