package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"anondyn/internal/cluster"
	"anondyn/internal/service"
	"anondyn/internal/store"
)

// The service-mix loop: a closed loop of serviceClients clients, each
// submitting its next spec only once its previous job is done, against a
// fresh Manager with serviceWorkers workers and a store on an empty
// directory per batch. The LRU is small against the batch's distinct specs
// (a quarter of its jobs), so repeats are served by both cache tiers:
// roughly a quarter of the jobs simulate, an eighth hit the LRU and the
// rest hit the store.
const (
	serviceClients = 2
	serviceWorkers = 2
	serviceCache   = 128
	serviceQueue   = 16
)

type serviceWorkload struct {
	jobs    int    // jobs per batch
	scratch string // parent of the batches' store directories
	specs   []service.JobSpec
}

// jobRecord is what a client observed of one job.
type jobRecord struct {
	err       error
	queueFull bool
	hit       bool
	hash      string
	res       *service.Result
	latency   time.Duration // Submit called → job done

	submit, encode time.Duration // encode: traced batches only
}

// batchOut is one batch: every job's record plus the manager's counters.
type batchOut struct {
	wall       time.Duration
	jobs       []jobRecord
	snap       service.MetricsSnapshot
	storeBytes int64
}

func (w *serviceWorkload) setup(seed int64) error {
	w.specs = cluster.GenSpecs(w.jobs, w.jobs/4, seed)
	_, err := w.batch(false)
	return err
}

// batch runs every spec once through a fresh Manager and store.
func (w *serviceWorkload) batch(traced bool) (*batchOut, error) {
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	m := service.NewManager(serviceWorkers, serviceCache, serviceQueue)
	m.AttachStore(st)

	out := &batchOut{jobs: make([]jobRecord, len(w.specs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.specs) {
					return
				}
				out.jobs[i] = submitJob(m, w.specs[i], traced)
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	if err := m.Shutdown(context.Background()); err != nil {
		return nil, fmt.Errorf("manager shutdown: %w", err)
	}
	out.snap = m.MetricsSnapshot()
	if out.snap.Store != nil {
		out.storeBytes = out.snap.Store.Bytes
	}
	return out, st.Close()
}

// submitJob submits one spec, waits for its job to finish and checks the
// answer. Traced, it also times the JSON encoding of the final status.
func submitJob(m *service.Manager, spec service.JobSpec, traced bool) jobRecord {
	var r jobRecord
	start := time.Now()
	job, err := m.Submit(spec)
	submitted := time.Now()
	r.submit = submitted.Sub(start)
	if err != nil {
		r.err, r.queueFull = err, errors.Is(err, service.ErrQueueFull)
		return r
	}
	r.hit, r.hash = job.CacheHit, job.Hash
	<-job.Done()
	r.latency = time.Since(start)

	status := job.Status()
	if traced {
		t0 := time.Now()
		_, err := json.Marshal(status)
		r.encode = time.Since(t0)
		if err != nil {
			r.err = fmt.Errorf("encode status: %w", err)
			return r
		}
	}
	switch {
	case status.State != service.JobDone:
		r.err = fmt.Errorf("job %s ended %s: %s", job.ID, status.State, status.Error)
	case status.Result == nil || status.Result.N != spec.N:
		r.err = fmt.Errorf("job %s counted %+v, want n=%d", job.ID, status.Result, spec.N)
	}
	r.res = status.Result
	return r
}

// serviceCounts are the exact counts of one distinct spec's result.
type serviceCounts struct {
	rounds, maxBits int
	bits            int64
}

// verifyBatch counts the batch's jobs into t and checks that every result
// of one spec carries the same exact counts, whichever tier served it.
func verifyBatch(t *tally, b *batchOut, ref map[string]serviceCounts) {
	for i := range b.jobs {
		r := &b.jobs[i]
		t.attempted++
		if r.err != nil {
			t.fail(fmt.Errorf("job %d: %w", i, r.err))
			continue
		}
		c := serviceCounts{r.res.Stats.Rounds, r.res.Stats.MaxMessageBits, r.res.Stats.TotalBits}
		if want, ok := ref[r.hash]; !ok {
			ref[r.hash] = c
		} else if c != want {
			r.err = fmt.Errorf("counts %+v differ from an earlier result's %+v", c, want)
			t.fail(fmt.Errorf("job %d: %w", i, r.err))
		}
	}
}

func (w *serviceWorkload) run(d time.Duration) tally {
	t := tally{m: metrics{}}
	ref := make(map[string]serviceCounts)
	var lat, sim []time.Duration
	var wall time.Duration
	var rounds int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		b, err := w.batch(false)
		if err != nil {
			t.attempted++
			t.fail(err)
			break
		}
		verifyBatch(&t, b, ref)
		wall += b.wall
		for _, r := range b.jobs {
			if r.err != nil {
				continue
			}
			lat = append(lat, r.latency)
			if !r.hit {
				sim = append(sim, r.latency)
				rounds += int64(r.res.Stats.Rounds)
			}
		}
	}

	var runRounds, runBits float64
	maxBits := 0
	for _, c := range ref {
		runRounds += float64(c.rounds)
		runBits += float64(c.bits)
		maxBits = max(maxBits, c.maxBits)
	}
	distinct := float64(max(1, len(ref)))
	ms := durations(lat, time.Millisecond)
	t.m.set("run_s_p50", median(durations(sim, time.Second)), "s")
	t.m.set("rounds_per_s", ratio(float64(rounds), wall.Seconds()), "rounds/s")
	t.m.set("rounds_per_run", runRounds/distinct, "rounds")
	t.m.set("max_msg_bits", float64(maxBits), "bits")
	t.m.set("bits_per_run", runBits/distinct, "bits")
	t.m.set("jobs_per_s", ratio(float64(len(lat)), wall.Seconds()), "jobs/s")
	t.m.set("job_ms_p50", median(ms), "ms")
	t.m.set("job_ms_p99", tail(ms), "ms")
	return t
}

// trace runs batches in pairs, untraced then traced, and reports the
// traced batches' per-layer breakdown.
func (w *serviceWorkload) trace(d time.Duration) tally {
	t := tally{m: metrics{}}
	ref := make(map[string]serviceCounts)
	var plain, traced time.Duration
	var submit, wait, run, encode, get, put []time.Duration
	var accepted, hits, storeHits, queueFull, storeBytes int64
	batches := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		b0, err := w.batch(false)
		var b1 *batchOut
		if err == nil {
			b1, err = w.batch(true)
		}
		var g, p []time.Duration
		if err == nil {
			g, p, err = w.storeOps(b1)
		}
		if err != nil {
			t.attempted++
			t.fail(err)
			break
		}
		verifyBatch(&t, b0, ref)
		verifyBatch(&t, b1, ref)
		plain += b0.wall
		traced += b1.wall
		batches++
		get, put = append(get, g...), append(put, p...)
		accepted += b1.snap.JobsAccepted
		hits += b1.snap.CacheHits
		storeHits += b1.snap.StoreHits
		storeBytes += b1.storeBytes
		for _, r := range b1.jobs {
			submit = append(submit, r.submit)
			if r.queueFull {
				queueFull++
			}
			if r.err != nil {
				continue
			}
			encode = append(encode, r.encode)
			if !r.hit {
				// The simulation's own wall time splits a simulated job: the
				// rest of its time after Submit returned is spent queued,
				// storing the result and waking the client.
				sim := r.res.Stats.WallClock
				run = append(run, sim)
				wait = append(wait, r.latency-r.submit-sim)
			}
		}
	}
	if batches == 0 {
		return t
	}
	t.m.set("bench.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1, "fraction")
	t.m.set("bench.run_s", traced.Seconds()/float64(batches), "s")
	t.m.set("service.submit_us_p50", median(durations(submit, time.Microsecond)), "us")
	t.m.set("service.submit_us_p99", tail(durations(submit, time.Microsecond)), "us")
	t.m.set("service.queue_wait_ms_p50", median(durations(wait, time.Millisecond)), "ms")
	t.m.set("service.run_ms_p50", median(durations(run, time.Millisecond)), "ms")
	t.m.set("service.encode_us_p50", median(durations(encode, time.Microsecond)), "us")
	t.m.set("service.cache_hit_ratio", ratio(float64(hits), float64(accepted)), "fraction")
	t.m.set("service.store_hit_ratio", ratio(float64(storeHits), float64(accepted)), "fraction")
	t.m.set("service.queue_full", float64(queueFull), "count")
	t.m.set("store.get_us_p50", median(durations(get, time.Microsecond)), "us")
	t.m.set("store.put_us_p50", median(durations(put, time.Microsecond)), "us")
	t.m.set("store.bytes", float64(storeBytes)/float64(batches), "bytes")
	return t
}

// storeOps replays the batch's distinct results against a fresh store:
// each key and JSON payload is Put once, then read back with Get.
func (w *serviceWorkload) storeOps(b *batchOut) (get, put []time.Duration, err error) {
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	seen := make(map[string]bool)
	var keys []string
	for _, r := range b.jobs {
		if r.err != nil || seen[r.hash] {
			continue
		}
		seen[r.hash] = true
		val, err := json.Marshal(r.res)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := st.Put(r.hash, val); err != nil {
			return nil, nil, err
		}
		put = append(put, time.Since(t0))
		keys = append(keys, r.hash)
	}
	for _, k := range keys {
		t0 := time.Now()
		_, ok := st.Get(k)
		get = append(get, time.Since(t0))
		if !ok {
			return nil, nil, fmt.Errorf("store lost key %s", k)
		}
	}
	return get, put, st.Close()
}
