package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// serveClients is both the number of closed-loop clients and the
// server's worker count: one per core of the two-core host the benchmark
// was sized on.
const serveClients = 2

// hitShare is the share of requests that ask for a pre-warmed job. No
// measured traffic fixes it: a sweep client posts each grid point once, so
// a first sweep is all misses and a repeated one all hits. Half and half
// weighs both paths alike; the per-layer serve.hit_ms_* and serve.miss_ms_*
// metrics give each path's latency on its own.
const hitShare = 0.5

// The grid the fresh jobs come from: every program under these port
// pairs, steering policies and optimisation modes.
var (
	servePorts    = []string{"1+0", "2+0", "4+0", "1+1", "2+1", "2+2", "3+2", "4+2"}
	serveSteering = []string{"hint", "sp", "oracle", "dual", "static", "spec"}
	serveModes    = []serve.JobSpec{{}, {Opt: true}, {StaticOpt: true}}
)

// serveGrid returns every job of the grid, in an order the seed fixes.
func serveGrid(programs []string, scale float64, seed uint64) []serve.JobSpec {
	var grid []serve.JobSpec
	for _, w := range programs {
		for _, ports := range servePorts {
			for _, steer := range serveSteering {
				for _, m := range serveModes {
					grid = append(grid, serve.JobSpec{Workload: w, Scale: scale, Ports: ports, Steer: steer,
						Opt: m.Opt, StaticOpt: m.StaticOpt})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return grid
}

// splitGrid takes the first perProgram jobs of every program as the
// pre-warmed set, so that set-up costs the same at every seed; the rest
// are the fresh jobs.
func splitGrid(grid []serve.JobSpec, perProgram int) (warm, fresh []serve.JobSpec) {
	n := map[string]int{}
	for _, j := range grid {
		if n[j.Workload] < perProgram {
			n[j.Workload]++
			warm = append(warm, j)
		} else {
			fresh = append(fresh, j)
		}
	}
	return warm, fresh
}

// serveEnv is an in-process server with a disk cache of its own, behind a
// loopback HTTP listener.
type serveEnv struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
}

func startServe(parent string) (*serveEnv, error) {
	dir, err := os.MkdirTemp(parent, "serve-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Workers: serveClients, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serveEnv{
		srv: srv,
		hs:  httptest.NewServer(srv.Handler()),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
			Timeout:   2 * time.Minute,
		},
		dir: dir,
	}, nil
}

// close stops the listener and drains the server, whose workers have
// exited when it returns, then removes the cache.
func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	e.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	return errors.Join(err, os.RemoveAll(e.dir))
}

type reply struct {
	key     string
	res     serve.JobResult
	latency time.Duration
}

// post submits one job and waits for its result, timing the request from
// the client's side.
func (e *serveEnv) post(client string, spec serve.JobSpec) (*reply, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, e.hs.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", client)
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rep := &reply{key: resp.Header.Get("X-Job-Key"), latency: time.Since(t0)}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &rep.res); err != nil {
		return nil, err
	}
	return rep, nil
}

func (e *serveEnv) statz() (serve.Statz, error) {
	var st serve.Statz
	resp, err := e.client.Get(e.hs.URL + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// prewarm completes every job once, spread over the clients.
func prewarm(e *serveEnv, jobs []serve.JobSpec) ([]*reply, error) {
	replies := make([]*reply, len(jobs))
	errs := make([]error, serveClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				if replies[i], errs[c] = e.post(fmt.Sprint("client", c), jobs[i]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return replies, errors.Join(errs...)
}

// clientLog is what one client observed in the timed phase.
type clientLog struct {
	hitMS, missMS, runMS, waitMS []float64
	committed                    uint64
	simS                         float64
}

// runServeMix is the serve-mix workload: two closed-loop clients post
// jobs to an in-process server, half of them pre-warmed jobs that the
// disk cache answers without queueing, half fresh grid points that queue,
// simulate and are written to the cache. A job is one request; hits and
// misses are its two kinds.
func runServeMix(r *run, p params) error {
	warm, fresh := splitGrid(serveGrid(p.programs, p.scale, r.seed), p.prewarm)
	var in inputSet
	var env *serveEnv
	var warmed []*reply
	defer func() {
		if env != nil {
			env.close() // only on an error path, which reports its own error
		}
	}()
	err := r.setup(func(s *span) error {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
			env = nil
		}
		// The server generates its programs with the default input.
		if err := in.build(r, s, p.programs, p.scale, workload.DefaultSeed); err != nil {
			return err
		}
		var err error
		if env, err = startServe(r.out); err != nil {
			return err
		}
		w := r.tr.begin(s, "serve.prewarm")
		warmed, err = prewarm(env, warm)
		w.end(map[string]uint64{"jobs": uint64(len(warm))})
		return err
	})
	if err != nil {
		return err
	}
	insts := map[string]uint64{}
	for _, x := range in.ins {
		insts[x.name] = x.insts
	}
	before, err := env.statz()
	if err != nil {
		return err
	}

	logs := make([]clientLog, serveClients)
	var next atomic.Int64
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	u := startUsage()
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			name := fmt.Sprint("client", c)
			rng := rand.New(rand.NewSource(int64(r.seed)*serveClients + int64(c)))
			for time.Now().Before(deadline) && !exhausted.Load() {
				if rng.Float64() < hitShare {
					i := rng.Intn(len(warm))
					s := r.tr.begin(nil, "serve.hit")
					rep, err := env.post(name, warm[i])
					s.end(nil)
					if !r.opDone("hit "+warm[i].Workload, err) {
						continue
					}
					l.hitMS = append(l.hitMS, float64(rep.latency.Nanoseconds())/1e6)
					want := warmed[i].res
					want.Cached = true
					r.checkf(rep.key == warmed[i].key && reflect.DeepEqual(rep.res, want),
						"hit %s: response differs from the pre-warm response for its key", rep.key)
					continue
				}
				i := int(next.Add(1)) - 1
				if i >= len(fresh) {
					exhausted.Store(true)
					return
				}
				s := r.tr.begin(nil, "serve.miss")
				rep, err := env.post(name, fresh[i])
				if err != nil {
					s.end(nil)
				} else {
					s.end(map[string]uint64{"committed": rep.res.Committed, "cycles": rep.res.Cycles})
				}
				if !r.opDone("miss "+fresh[i].Workload, err) {
					continue
				}
				ms := float64(rep.latency.Nanoseconds()) / 1e6
				l.missMS = append(l.missMS, ms)
				l.runMS = append(l.runMS, 1000*rep.res.WallSeconds)
				l.waitMS = append(l.waitMS, ms-1000*rep.res.WallSeconds)
				l.committed += rep.res.Committed
				l.simS += rep.res.WallSeconds
				r.checkf(!rep.res.Cached, "miss %s: answered from the cache", rep.key)
				r.checkf(rep.res.Committed == insts[fresh[i].Workload],
					"miss %s: committed %d instructions, the emulator executes %d", rep.key, rep.res.Committed, insts[fresh[i].Workload])
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	after, err := env.statz()
	if err != nil {
		return err
	}
	err, env = env.close(), nil
	if err != nil {
		return err
	}

	var all clientLog
	for _, l := range logs {
		all.hitMS = append(all.hitMS, l.hitMS...)
		all.missMS = append(all.missMS, l.missMS...)
		all.runMS = append(all.runMS, l.runMS...)
		all.waitMS = append(all.waitMS, l.waitMS...)
		all.committed += l.committed
		all.simS += l.simS
	}
	jobs := len(all.hitMS) + len(all.missMS)
	if len(all.missMS) == 0 || len(all.hitMS) == 0 {
		return fmt.Errorf("%d hits and %d misses in %.1f s: too few to measure", len(all.hitMS), len(all.missMS), elapsed)
	}
	u.finish(r, len(all.missMS))
	r.setTiming("sim_minst_per_s", float64(all.committed)/all.simS/1e6, "Minst/s", len(all.missMS))
	r.setTiming("jobs_per_s", float64(jobs)/elapsed, "jobs/s", jobs)
	r.jobLatencies([][]float64{all.hitMS, all.missMS}, append(append([]float64(nil), all.hitMS...), all.missMS...), jobs)

	for name, xs := range map[string][]float64{"hit_ms": all.hitMS, "miss_ms": all.missMS, "run_ms": all.runMS} {
		s := sorted(xs)
		r.setTiming("serve."+name+"_p50", percentile(s, 0.50), "ms", len(s))
		r.setTiming("serve."+name+"_p95", percentile(s, 0.95), "ms", len(s))
	}
	r.setTiming("serve.queue_wait_ms_p50", median(all.waitMS), "ms", len(all.waitMS))
	delta := func(a, b uint64) float64 { return float64(b - a) }
	hits, misses := delta(before.Cache.Hits, after.Cache.Hits), delta(before.Cache.Misses, after.Cache.Misses)
	r.set("serve.cache_hits", hits, "count")
	r.set("serve.cache_misses", misses, "count")
	r.set("serve.cache_writes", delta(before.Cache.Writes, after.Cache.Writes), "count")
	r.set("serve.cache_corrupt", delta(before.Cache.Corrupt, after.Cache.Corrupt), "count")
	r.set("serve.retries", delta(before.Retries, after.Retries), "count")
	r.set("serve.shed", delta(shed(before), shed(after)), "count")
	r.set("serve.failed", delta(before.Failed, after.Failed), "count")
	r.set("serve.hit_ratio", hits/(hits+misses), "fraction")
	r.set("serve.hit_samples", float64(len(all.hitMS)), "count")
	r.set("serve.miss_samples", float64(len(all.missMS)), "count")
	in.setInputMetrics(r)
	r.unused("experiments.")
	return probe(r, &in, p.cfg)
}

func shed(st serve.Statz) uint64 { return st.ShedQueueFull + st.ShedClientLimit + st.ShedDraining }
