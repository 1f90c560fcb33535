package main

// Load generators. The closed loop runs a fixed number of clients, each
// issuing its next operation when the previous one returns. The open
// loop sends on a fixed schedule and times every request from when it
// was due, so a stall is charged to every request it delays
// (coordinated-omission correction), and it reports how late the
// generator itself ran.

import (
	"sync"
	"time"
)

// record is one finished operation.
type record struct {
	pos     int           // position in the schedule (cycle·len + index)
	latency time.Duration // see closedLoop
	end     time.Duration // since the loop started
	write   bool
}

// sequencer hands out schedule positions in order and enforces the
// read/write ordering of a schedule with inserts: an Ask waits until
// every insert before it has returned, and an insert waits until every
// operation before it has returned. So the data version each Ask sees is
// fixed by its position, whatever the timing, and outcome counts repeat
// exactly. Without inserts nothing ever waits.
type sequencer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cycle  []op
	next   int    // next position to hand out
	done   []bool // done[p] for p >= low
	low    int    // every position below low has returned
	writes int    // inserts returned
	stop   bool   // no new cycle is started once set
	// writesBefore[i] counts inserts before index i of one cycle.
	writesBefore []int
}

func newSequencer(cycle []op) *sequencer {
	s := &sequencer{cycle: cycle, writesBefore: make([]int, len(cycle)+1)}
	s.cond = sync.NewCond(&s.mu)
	for i, o := range cycle {
		s.writesBefore[i+1] = s.writesBefore[i]
		if o.insert != nil {
			s.writesBefore[i+1]++
		}
	}
	return s
}

// writesAt is the number of inserts scheduled before position pos: the
// data version an Ask at pos sees.
func (s *sequencer) writesAt(pos int) int {
	n := len(s.cycle)
	return pos/n*s.writesBefore[n] + s.writesBefore[pos%n]
}

// claim returns the next position, or false once stop is set and the
// cycle in progress has been handed out completely.
func (s *sequencer) claim() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop && s.next%len(s.cycle) == 0 {
		return 0, false
	}
	p := s.next
	s.next++
	s.done = append(s.done, false)
	return p, true
}

// wait blocks until the operation at pos may start.
func (s *sequencer) wait(pos int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cycle[pos%len(s.cycle)].insert != nil {
		for s.low < pos {
			s.cond.Wait()
		}
		return
	}
	for s.writes < s.writesAt(pos) {
		s.cond.Wait()
	}
}

// finish marks pos returned.
func (s *sequencer) finish(pos int) {
	s.mu.Lock()
	s.done[pos] = true
	for s.low < len(s.done) && s.done[s.low] {
		s.low++
	}
	if s.cycle[pos%len(s.cycle)].insert != nil {
		s.writes++
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *sequencer) halt() {
	s.mu.Lock()
	s.stop = true
	s.mu.Unlock()
}

// closedLoop runs clients over the cyclic schedule for d, then lets the
// cycle in progress finish so every run covers whole cycles. An insert
// is timed from issue, so its latency includes the wait for the
// benchmark's write lock; an Ask is timed from when the sequencer lets
// it start, so the ordering wait behind an insert is charged to the
// insert, not to the program's read latency. do performs
// one operation; it is called concurrently and may return work (tracing
// bookkeeping) to run after the operation's latency has been taken. It
// returns the records in completion order and the wall time taken.
func closedLoop(clients int, seq *sequencer, d time.Duration, do func(pos int, o op) (after func())) ([]record, time.Duration) {
	var mu sync.Mutex
	var recs []record
	start := time.Now()
	stopTimer := time.AfterFunc(d, seq.halt)
	defer stopTimer.Stop()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos, ok := seq.claim()
				if !ok {
					return
				}
				o := seq.cycle[pos%len(seq.cycle)]
				t0 := time.Now()
				seq.wait(pos)
				if o.insert == nil {
					t0 = time.Now()
				}
				after := do(pos, o)
				now := time.Now()
				seq.finish(pos)
				mu.Lock()
				recs = append(recs, record{pos: pos, latency: now.Sub(t0), end: now.Sub(start), write: o.insert != nil})
				mu.Unlock()
				if after != nil {
					after()
				}
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// openLoop sends n requests at a fixed rate from clients senders. Request
// i is due at start + i/rate; a free sender waits for its due time, a
// late one sends at once. Latency runs from the due time; lag is how far
// the actual send trailed it. send may return work (checking the reply)
// to run after the latency has been taken.
func openLoop(clients int, rate float64, n int, send func(i int) (after func())) (lat, lag []time.Duration, elapsed time.Duration) {
	lat = make([]time.Duration, n)
	lag = make([]time.Duration, n)
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag[i] = time.Since(due)
				after := send(i)
				lat[i] = time.Since(due)
				if after != nil {
					after()
				}
			}
		}()
	}
	wg.Wait()
	return lat, lag, time.Since(start)
}
