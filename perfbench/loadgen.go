package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"greensched/internal/middleware"
)

// sample is one request of an open-loop phase. Latency runs from the
// request's due time, so a stalled generator or a saturated master
// shows up in the latency of every request it delayed.
type sample struct {
	due, start, end time.Time
	err             error
}

func (s sample) latUs() float64 {
	if s.err != nil {
		// A failed request misses every latency limit.
		return math.Inf(1)
	}
	return float64(s.end.Sub(s.due).Nanoseconds()) / 1e3
}

func (s sample) startDelayUs() float64 { return float64(s.start.Sub(s.due).Nanoseconds()) / 1e3 }

func (s sample) doUs() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e3 }

// phase is the outcome of driving one schedule.
type phase struct {
	samples []sample // schedule order (open-loop phases only)
	sent    int
	ok      int
	failed  int
	lateUs  []float64
}

// drainTimeout bounds the wait for a phase's last requests; requests
// are never cancelled, so only a hung program hits it.
const drainTimeout = 60 * time.Second

// submitter sends schedules to one master from one process, open loop.
type submitter struct {
	master *middleware.Master
	nextID *atomic.Uint64
}

// drive sends each arrival at its due time, each in its own goroutine,
// and waits for all of them. Requests are never held back: the fixed
// rates sit well below capacity, and a hung program is caught by
// drainTimeout. The generator runs on its own OS thread
// and sleeps with nanosleep at fine timer slack: the Go timer wakes
// idle processes only to the millisecond, which would swamp the
// sub-millisecond latencies being measured.
func (d submitter) drive(sched []arrival) (*phase, error) {
	ph := &phase{samples: make([]sample, len(sched))}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	gen := make(chan struct{})
	go func() {
		defer close(gen)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		t0 := time.Now().Add(2 * time.Millisecond)
		ph.lateUs = make([]float64, 0, len(sched))
		for i, a := range sched {
			due := t0.Add(time.Duration(a.At * float64(time.Second)))
			sleepUntil(due)
			ph.lateUs = append(ph.lateUs, float64(time.Since(due).Nanoseconds())/1e3)
			req := middleware.Request{ID: d.nextID.Add(1), Service: "compute", Ops: a.Ops, Pref: a.Pref}
			ph.samples[i].due = due
			inflight.Add(1)
			wg.Add(1)
			go func(s *sample) {
				defer wg.Done()
				s.start = time.Now()
				_, s.err = d.master.Do(ctx, req)
				s.end = time.Now()
				inflight.Add(-1)
			}(&ph.samples[i])
			ph.sent++
		}
	}()
	<-gen
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("%d requests still in flight %v after the schedule ended", inflight.Load(), drainTimeout)
	}
	ph.samples = ph.samples[:ph.sent]
	for _, s := range ph.samples {
		if s.err != nil {
			ph.failed++
		} else {
			ph.ok++
		}
	}
	return ph, nil
}

// sleepUntil blocks the calling OS thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // an early wake (EINTR) just loops
	}
}

// setTimerSlack asks Linux for 1 µs timer slack on the calling thread
// (the default 50 µs would dominate the generator's lateness).
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: lateness is measured either way
}

// latencies returns the phase's per-request latencies (µs), failures
// as +Inf.
func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		out[i] = s.latUs()
	}
	return out
}

// saturate is one capacity block: clients callers, each sending its
// next request as soon as its previous one returns, for seconds. The
// request sizes and preferences come from params in turn. It returns
// the block and its rate: requests completed within the seconds, per
// second.
func (d submitter) saturate(params []arrival, clients int, seconds float64) (*phase, float64, error) {
	var next, sent, failed, done atomic.Int64
	ctx := context.Background()
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				a := params[int(next.Add(1)-1)%len(params)]
				req := middleware.Request{ID: d.nextID.Add(1), Service: "compute", Ops: a.Ops, Pref: a.Pref}
				sent.Add(1)
				if _, err := d.master.Do(ctx, req); err != nil {
					failed.Add(1)
				} else if time.Now().Before(stop) {
					done.Add(1)
				}
			}
		}()
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(time.Until(stop) + drainTimeout):
		return nil, 0, fmt.Errorf("capacity block still running %v after its end", drainTimeout)
	}
	ph := &phase{sent: int(sent.Load()), failed: int(failed.Load())}
	ph.ok = ph.sent - ph.failed
	return ph, float64(done.Load()) / seconds, nil
}
