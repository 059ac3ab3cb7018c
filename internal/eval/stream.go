package eval

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Pull-based answer streaming. Every compiled plan can deliver its answers
// through an Iterator instead of a fully materialized relation: the consumer
// pulls tuples as the producer derives them, a bounded channel provides
// backpressure, and closing the iterator (or an external Opts.Abort) stops
// the producing fixpoint at its next round boundary. Cached results stream
// through the same interface with no evaluation and no copying.

// streamChanSize bounds the producer/consumer channel: enough slack that the
// producer is not re-scheduled per tuple, small enough that an abandoned
// consumer stops the fixpoint within one channel's worth of answers.
const streamChanSize = 64

// Iterator is a pull-based stream of answer tuples.
//
// The contract: call Next until it returns false, reading Tuple after each
// true; then Err distinguishes exhaustion from failure and Stats reports the
// work done. Close releases the producer early (idempotent, safe after
// exhaustion) and must be called when abandoning the stream before Next
// returned false; Err and Stats are valid only after Next returned false or
// Close returned. Tuples stay valid until Close — they may alias the
// producer's arena, so a consumer keeping tuples past Close must copy them.
// An Iterator is single-consumer: Next/Tuple from one goroutine only. Ready
// reports whether the next Next call returns without waiting for the
// producer — the point at which a buffered writer must flush what it holds.
type Iterator interface {
	Next() bool
	Ready() bool
	Tuple() storage.Tuple
	Err() error
	Stats() Stats
	Close()
}

// relIterator streams an already-materialized relation — the result cache's
// hit path. No goroutine, no copying: Tuple returns the relation's own
// arena-backed headers.
type relIterator struct {
	rel     *storage.Relation
	idx     int
	limit   int
	emitted int
	cur     storage.Tuple
	st      Stats
}

// NewRelationIterator streams rel's tuples in insertion order. limit > 0
// stops the stream after limit tuples and marks Stats.Truncated when more
// existed; limit <= 0 streams everything. st seeds the iterator's Stats
// (e.g. the cached evaluation's counters).
func NewRelationIterator(rel *storage.Relation, limit int, st Stats) Iterator {
	return &relIterator{rel: rel, limit: limit, st: st}
}

func (it *relIterator) Next() bool {
	if it.rel == nil || it.idx >= it.rel.Len() {
		it.cur = nil
		return false
	}
	if it.limit > 0 && it.emitted >= it.limit {
		it.st.Truncated = true
		it.cur = nil
		return false
	}
	it.cur = it.rel.At(it.idx)
	it.idx++
	it.emitted++
	return true
}

func (it *relIterator) Ready() bool          { return true }
func (it *relIterator) Tuple() storage.Tuple { return it.cur }
func (it *relIterator) Err() error           { return nil }
func (it *relIterator) Stats() Stats         { return it.st }
func (it *relIterator) Close()               {}

// evalIterator runs a push-mode streaming engine in a producer goroutine and
// adapts it to the pull interface (the evalIterator shape: bounded result
// channel, abort channel, WaitGroup cleanup). Close closes the abort
// channel; the engine observes it either at a round boundary (Opts.Abort)
// or on its next blocked emit, so an abandoned stream stops the fixpoint
// promptly and Close returns only after the producer goroutine exited —
// tests can assert zero goroutine leak right after Close.
type evalIterator struct {
	ch       chan storage.Tuple
	abort    chan struct{}
	finished chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
	closing  atomic.Bool

	cur storage.Tuple
	st  Stats
	err error
}

// Stream evaluates the query along the compiled path (Plan.run with an emit
// sink) in a producer goroutine, delivering answers through an Iterator as
// they are derived. limit > 0 stops the evaluation once limit answers were
// delivered and one more was derived (Stats.Truncated set). Bound-argument
// queries on TC plans additionally exit as soon as the answer set is complete
// — a fully bound tc(a, b)? stops at its first derivation without computing
// the rest of the closure — and on classified stable and generic plans run
// the query's magic-sets program instead of the whole fixpoint. The
// iterator's answers equal AnswerOpts' answer relation, in deterministic
// order per plan. opts.Abort, when non-nil,
// cancels the stream from outside (a watcher goroutine forwards it to the
// producer); Err then reports ErrCanceled. Emitted tuples stay valid until
// the evaluation's working storage is garbage — every sink is handed
// arena-backed tuples, never reused scratch buffers.
func (p *Plan) Stream(q ast.Query, db *storage.Database, opts Opts, limit int) Iterator {
	it := &evalIterator{
		ch:       make(chan storage.Tuple, streamChanSize),
		abort:    make(chan struct{}),
		finished: make(chan struct{}),
	}
	external := opts.Abort
	ro := opts
	ro.Abort = it.abort

	emitted := 0
	truncated := false
	emit := func(t storage.Tuple) bool {
		// The limit declines the tuple after the last one it wanted, so
		// Truncated means the same as on the cached path: more existed.
		if limit > 0 && emitted >= limit {
			truncated = true
			return false
		}
		select {
		case it.ch <- t:
		case <-it.abort:
			return false
		}
		emitted++
		return true
	}

	if external != nil {
		it.wg.Add(1)
		go func() {
			defer it.wg.Done()
			select {
			case <-external:
				it.once.Do(func() { close(it.abort) })
			case <-it.finished:
			}
		}()
	}

	p, m := p.over(q, db, true)
	it.wg.Add(1)
	go func() {
		defer it.wg.Done()
		_, _, st, err := p.run(m, q, db, ro, sink{pred: q.Atom.Pred, emit: emit})
		if truncated {
			st.Truncated = true
		}
		if err == errStreamStop {
			err = nil
			if !truncated {
				// The engine stopped on a declined emit without the limit
				// being the reason. If the abort channel is closed the stop
				// came from Close or an external cancel — report ErrCanceled
				// so a partial answer set is never mistaken for a complete
				// one (Err suppresses it again for consumer-initiated Close).
				select {
				case <-it.abort:
					err = fmt.Errorf("eval: stream: %w", ErrCanceled)
				default:
				}
			}
		}
		it.st, it.err = st, err
		// Store st/err before closing the channel: the consumer's failed
		// receive is its happens-after edge for reading them.
		close(it.ch)
		close(it.finished)
	}()
	return it
}

func (it *evalIterator) Next() bool {
	t, ok := <-it.ch
	if !ok {
		it.cur = nil
		return false
	}
	it.cur = t
	return true
}

// Ready may turn stale at once, which costs the caller only an early flush.
func (it *evalIterator) Ready() bool { return len(it.ch) > 0 }

func (it *evalIterator) Tuple() storage.Tuple { return it.cur }

// Err reports how the stream ended. A deliberate stop — the consumer's limit
// or Close — is a clean end (nil); an external Opts.Abort surfaces as
// ErrCanceled so the caller can tell a complete answer set from a
// disconnected one.
func (it *evalIterator) Err() error {
	if it.err != nil && errors.Is(it.err, ErrCanceled) && it.closing.Load() {
		return nil
	}
	return it.err
}

func (it *evalIterator) Stats() Stats { return it.st }

// Close aborts the producer and waits for it (and the abort watcher) to
// exit. Idempotent; safe after exhaustion. closing is set inside the once
// so it records who actually closed the abort channel: a Close racing an
// external cancel that fired first must not relabel the cancellation as
// consumer-initiated.
func (it *evalIterator) Close() {
	it.once.Do(func() {
		it.closing.Store(true)
		close(it.abort)
	})
	it.wg.Wait()
}
