package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"vvd/internal/camera"
	"vvd/internal/wire"
)

// framePeriod is one camera frame period (≈33.3 ms): an estimate older
// than this at the receiver has missed the freshness target.
const framePeriod = time.Second / camera.FrameRate

// closedPerClient is the closed-loop probe's concurrency per connection.
const closedPerClient = 8

// sample is one request of a load phase.
type sample struct {
	rtt  time.Duration // due time (open loop) or send time (closed loop) to reply
	lag  time.Duration // how late the generator sent it
	age  time.Duration // upper bound of the served estimate's age at receipt
	done time.Duration // completion, from the start of the phase
	err  error
}

// window is the length of the consecutive sub-windows the serving figures
// are taken over: the median over windows keeps one disturbed second from
// moving the run's figure. At the open-loop rates a window holds ≥ 960
// requests, so its p99 has ≥ 10 samples beyond it.
const window = time.Second

// windowMedian applies f to the samples completing in each full window of
// a phase of length phase and returns the median over the windows where f
// is defined (not NaN); with no such window it returns whole.
func windowMedian(samples []sample, phase time.Duration, f func([]sample) float64, whole float64) float64 {
	buckets := make([][]sample, int(phase/window))
	for _, s := range samples {
		if i := int(s.done / window); i < len(buckets) {
			buckets[i] = append(buckets[i], s)
		}
	}
	var vals []float64
	for _, b := range buckets {
		if v := f(b); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return whole
	}
	return median(vals)
}

// call issues the k-th request of link li on connection c and returns the
// age bound of the estimate it was served. captured is when the request's
// frame was taken: its due time in the open loop, its send time in the
// closed loop.
type call func(c *wire.Client, link string, li, k int, captured time.Time, reply *wire.EstimateReply) (time.Duration, error)

// submitCall submits a frame and waits for its estimate, which is inferred
// from that frame or a newer one, so the time since the frame was captured
// bounds the estimate's age at receipt.
func submitCall(in *inputs, tr *tracer) call {
	return func(c *wire.Client, link string, li, k int, captured time.Time, reply *wire.EstimateReply) (time.Duration, error) {
		frame := (li*7 + k) % len(in.frames)
		cs := tr.begin(link)
		err := c.Submit(link, in.frames[frame], submitWait, reply)
		tr.end(cs, "client.submit", link)
		if err != nil {
			return 0, err
		}
		return time.Since(captured), in.check(reply, frame)
	}
}

// fetchCall reads the link's freshest estimate. The backend stamped its
// age somewhere inside the round trip, so age plus round trip bounds it at
// receipt.
func fetchCall(in *inputs, tr *tracer) call {
	return func(c *wire.Client, link string, li, k int, _ time.Time, reply *wire.EstimateReply) (time.Duration, error) {
		cs := tr.begin(link)
		t0 := time.Now()
		err := c.Fetch(link, reply)
		rtt := time.Since(t0)
		tr.end(cs, "client.fetch", link)
		if err != nil {
			return 0, err
		}
		return reply.Age + rtt, in.check(reply, -1)
	}
}

// runServe drives the cluster with the workload's mix: an open-loop phase
// at the fixed rate, then the closed-loop capacity probe. The open-loop
// medians and tail are each the median over the phase's 1-second windows.
func runServe(w workload, o options, cl *cluster, in *inputs, tr *tracer, m *measurement) error {
	prefix, do := "link", submitCall(in, tr)
	var stopFeed func() tally
	if w.Mix == mixFetch {
		var err error
		if stopFeed, err = startFeed(cl, in, tr); err != nil {
			return err
		}
		prefix, do = "reader", fetchCall(in, tr)
	}
	links := make([]string, w.Links)
	for i := range links {
		links[i] = fmt.Sprintf("%s-%d", prefix, i)
	}

	// One untimed second at the open-loop rate lets the heap and the GC
	// pacer settle after the offline phases.
	warm := openLoop(cl, links, w.Rate, time.Second, do)
	openDur := o.share(w.OpenShare)
	tr.setWindow("open")
	t0 := time.Now()
	open := openLoop(cl, links, w.Rate, openDur, do)
	openWall := time.Since(t0)
	tr.setWindow("closed")
	t0 = time.Now()
	good, closed := closedLoop(cl, links, w.Mix, o.share(w.ClosedShare), do)
	closedWall := time.Since(t0)
	tr.setWindow("")
	if stopFeed != nil {
		m.tally.merge(stopFeed())
	}

	// A failed request misses every latency target: it counts as taking
	// the whole phase.
	rttsOf := func(samples []sample) []float64 {
		rtts := make([]float64, len(samples))
		for i, s := range samples {
			rtts[i] = msOf(s.rtt)
			if s.err != nil {
				rtts[i] = msOf(openDur)
			}
		}
		return rtts
	}
	agesOf := func(samples []sample) []float64 {
		var ages []float64
		for _, s := range samples {
			if s.err == nil {
				ages = append(ages, msOf(s.age))
			}
		}
		return ages
	}
	var lags []float64
	fresh := 0
	for _, phase := range [][]sample{warm, open, closed} {
		for _, s := range phase {
			m.tally.add(s.err == nil, fmt.Sprint(s.err))
		}
	}
	for _, s := range open {
		lags = append(lags, msOf(s.lag))
		if s.err == nil && s.age <= framePeriod {
			fresh++
		}
	}
	ok := len(agesOf(open))
	if ok == 0 || good == 0 {
		return errors.New("a load phase served nothing")
	}
	m.values["served_per_s"] = float64(ok) / openWall.Seconds()
	// Capacity is the best 1-second window: the rate the cluster sustains
	// when nothing else on the machine takes its cores.
	capacity := float64(good) / closedWall.Seconds()
	for i := 0; i < int(closedWall/window); i++ {
		n := 0
		for _, s := range closed {
			if s.err == nil && int(s.done/window) == i {
				n++
			}
		}
		capacity = max(capacity, float64(n)/window.Seconds())
	}
	m.layers["capacity_per_s"] = capacity
	m.values["rtt_p50_ms"] = windowMedian(open, openDur, func(ws []sample) float64 {
		return quantile(rttsOf(ws), 0.5)
	}, quantile(rttsOf(open), 0.5))
	m.layers["rtt_p99_ms"] = windowMedian(open, openDur, func(ws []sample) float64 {
		return quantile(rttsOf(ws), 0.99)
	}, quantile(rttsOf(open), 0.99))
	m.values["age_p50_ms"] = windowMedian(open, openDur, func(ws []sample) float64 {
		return quantile(agesOf(ws), 0.5)
	}, quantile(agesOf(open), 0.5))
	m.values["fresh_share"] = float64(fresh) / float64(len(open))
	m.layers["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	fmt.Fprintf(o.Log, "serve: open loop %d requests (%d ok, %d fresh, rtt p99 %.3f ms), closed loop %d requests (%d ok)\n",
		len(open), ok, fresh, m.layers["rtt_p99_ms"], len(closed), good)
	return nil
}

// openLoop sends every link's requests on a fixed schedule (rate per link,
// links evenly phased) for dur, timing each from when it was due: a stall
// delays every request behind it and the delay is counted. A link's
// requests never overlap, so the tracer can follow them by link.
func openLoop(cl *cluster, links []string, rate float64, dur time.Duration, do call) []sample {
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(dur)
	per := make([][]sample, len(links))
	var wg sync.WaitGroup
	for li, link := range links {
		wg.Add(1)
		go func(li int, link string) {
			defer wg.Done()
			c := cl.clients[li%len(cl.clients)]
			offset := period * time.Duration(li) / time.Duration(len(links))
			var reply wire.EstimateReply
			for k := 0; ; k++ {
				due := start.Add(offset + time.Duration(k)*period)
				if !due.Before(end) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				age, err := do(c, link, li, k, due, &reply)
				now := time.Now()
				per[li] = append(per[li], sample{rtt: now.Sub(due), lag: sent.Sub(due), age: age, done: now.Sub(start), err: err})
			}
		}(li, link)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// closedLoop keeps closedPerClient requests in flight on every connection
// for dur and returns the good replies. Submit workers each use a link of
// their own; fetch worker i reads the links i, i+W, i+2W, … in turn. Either
// way no link has two requests in flight.
func closedLoop(cl *cluster, links []string, mix string, dur time.Duration, do call) (int, []sample) {
	workers := closedPerClient * len(cl.clients)
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		owned := []string{fmt.Sprintf("capacity-%d", wi)}
		if mix == mixFetch {
			owned = nil
			for j := wi; j < len(links); j += workers {
				owned = append(owned, links[j])
			}
			if len(owned) == 0 {
				owned = []string{links[wi%len(links)]}
			}
		}
		wg.Add(1)
		go func(wi int, owned []string) {
			defer wg.Done()
			c := cl.clients[wi%len(cl.clients)]
			var reply wire.EstimateReply
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				_, err := do(c, owned[k%len(owned)], wi, k, t0, &reply)
				now := time.Now()
				per[wi] = append(per[wi], sample{rtt: now.Sub(t0), done: now.Sub(start), err: err})
			}
		}(wi, owned)
	}
	wg.Wait()
	var out []sample
	good := 0
	for _, s := range per {
		for _, x := range s {
			if x.err == nil {
				good++
			}
		}
		out = append(out, s...)
	}
	return good, out
}

// startFeed finds, for every backend, a camera link the router places on
// it, then submits one frame per frame period on each, fire-and-forget,
// until the returned stop is called. It returns once every backend has
// published an estimate of a fed frame.
func startFeed(cl *cluster, in *inputs, tr *tracer) (func() tally, error) {
	links, err := cl.cameraLinks(in)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	done := make(chan struct{})
	tallies := make([]tally, len(links))
	var wg sync.WaitGroup
	for i, link := range links {
		wg.Add(1)
		go func(i int, link string) {
			defer wg.Done()
			c := cl.clients[i%len(cl.clients)]
			tick := time.NewTicker(framePeriod)
			defer tick.Stop()
			var reply wire.EstimateReply
			for k := 0; ; k++ {
				cs := tr.begin(link)
				err := c.SubmitNoWait(link, in.frames[(i*31+k)%len(in.frames)], &reply)
				tr.end(cs, "client.feed", link)
				tallies[i].add(err == nil, fmt.Sprint(err))
				select {
				case <-done:
					return
				case <-tick.C:
				}
			}
		}(i, link)
	}
	stop := func() tally {
		close(done)
		wg.Wait()
		var t tally
		for _, x := range tallies {
			t.merge(x)
		}
		return t
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, svc := range cl.svcs {
		for {
			if e, ok := svc.Latest(); ok && e.CapturedAt.After(began) {
				break
			}
			if time.Now().After(deadline) {
				stop()
				return nil, errors.New("camera feed: a backend published no estimate within 5s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return stop, nil
}

// cameraLinks returns one link id per backend that the router places on
// that backend, found by submitting candidates and asking each backend
// which sessions it opened.
func (cl *cluster) cameraLinks(in *inputs) ([]string, error) {
	links := make([]string, len(cl.svcs))
	found := 0
	var reply wire.EstimateReply
	for cand := 0; found < len(links) && cand < 256; cand++ {
		link := fmt.Sprintf("camera-%d", cand)
		if err := cl.clients[0].SubmitNoWait(link, in.frames[0], &reply); err != nil {
			return nil, err
		}
		for b, svc := range cl.svcs {
			if links[b] != "" {
				continue
			}
			for _, st := range svc.Links() {
				if st.ID == link {
					links[b] = link
					found++
				}
			}
		}
	}
	if found < len(links) {
		return nil, errors.New("camera feed: no link maps to some backend")
	}
	return links, nil
}
