package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The service soak drives the full HTTP service the way a hostile fleet
// would: concurrent clients mixing honest jobs, duplicates, malformed
// requests, slow request bodies, and cancel storms, while a share of
// first run attempts fail through their own run bounds and a background
// corruptor scribbles over the persistent cache. The claims under test
// are the service layer's robustness properties, not simulator fidelity:
//
//   - every HTTP response lands in the documented status set with a
//     well-formed typed body — no hung requests, no undocumented states;
//   - a transient failure (watchdog) is retried, and a terminal one
//     (cycle cap) surfaces as a 422 with a pipeline snapshot, never as a
//     crashed or wedged service;
//   - cache corruption degrades to recomputation, never to a failure;
//   - after the storm, the server drains cleanly within its deadline and
//     leaks no goroutines.
//
// Set SERVICE_SOAK_REPORT_DIR to persist the final /statz dump and the
// response census (CI uploads them as artifacts).

// soakStatuses is the complete documented response-status surface of
// POST /jobs; any other status is a soak failure.
var soakStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestTimeout:        true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusInternalServerError:   true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

const soakProgram = `	.text
	.global main
main:
	addi $sp, $sp, -8
	li   $t0, 7
	sw   $t0, 0($sp) !local
	lw   $t1, 0($sp) !local
	out  $t1
	addi $sp, $sp, 8
	halt
`

// soakJobRunOpts fails a deterministic share of first attempts, keyed on
// the job's cache key, through the run's own bounds: a 16-cycle watchdog
// window trips at a workload's first cold miss, a transient failure the
// server retries, and a 200-cycle cap ends any workload run with
// KindMaxCycles, a terminal failure. Half the first attempts and every
// retry run with the clean bounds, modelling a transient fault that has
// passed.
func soakJobRunOpts(key string, attempt int) core.RunOptions {
	opts := core.RunOptions{MaxCycles: 20_000_000, WatchdogCycles: 100_000}
	if attempt > 0 {
		return opts
	}
	h := fnv.New64a()
	io.WriteString(h, key)
	switch h.Sum64() % 8 {
	case 4, 5, 6:
		opts.WatchdogCycles = 16
	case 7:
		opts.MaxCycles = 200
	}
	return opts
}

// soakResponse is one request's observed terminal state, kept for the
// failure artifact.
type soakResponse struct {
	Client     string `json:"client"`
	Seq        int    `json:"seq"`
	Body       string `json:"request"`
	Status     int    `json:"status"`
	Kind       string `json:"kind,omitempty"`
	ClientErr  string `json:"client_error,omitempty"`
	CancelStor bool   `json:"cancel_storm,omitempty"`
}

func TestServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full service storm")
	}
	baseline := runtime.NumGoroutine()

	cacheDir := t.TempDir()
	srv, err := serve.New(serve.Options{
		Workers:      4,
		QueueDepth:   32,
		MaxPerClient: 6,
		MaxRetries:   2,
		RetryBase:    5 * time.Millisecond,
		RetryCap:     40 * time.Millisecond,
		JobTimeout:   20 * time.Second,
		MaxScale:     0.1,
		CacheDir:     cacheDir,
		JobRunOpts:   soakJobRunOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Background cache corruptor: scribbles garbage over or truncates
	// random persisted entries while the storm reads them.
	corruptorStop := make(chan struct{})
	var corruptorDone sync.WaitGroup
	var filesCorrupted atomic.Uint64
	corruptorDone.Add(1)
	go func() {
		defer corruptorDone.Done()
		rng := rand.New(rand.NewSource(1))
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-corruptorStop:
				return
			case <-tick.C:
			}
			filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() || rng.Intn(4) != 0 {
					return nil
				}
				if rng.Intn(2) == 0 {
					os.Truncate(path, 17)
				} else {
					os.WriteFile(path, []byte("\x00garbage, not an entry"), 0o644)
				}
				filesCorrupted.Add(1)
				return nil
			})
		}
	}()

	workloads := []string{"li", "gcc", "compress", "perl", "go", "swim"}
	portCfgs := []string{"2+0", "3+2", "4+1"}

	var mu sync.Mutex
	var responses []soakResponse
	census := map[string]int{}
	record := func(r soakResponse, bucket string) {
		mu.Lock()
		responses = append(responses, r)
		census[bucket]++
		mu.Unlock()
	}

	const (
		clients    = 6
		perClient  = 22
		stormSlice = 5 // every 5th request is a cancel storm
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("soak-%d", c)
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < perClient; i++ {
				var body string
				switch {
				case i%11 == 3:
					body = `{"workload":"no-such-workload"}` // deterministic 400
				case i%11 == 7:
					body = `{"workload":` // malformed JSON, 400
				case i%3 == 0:
					// A popular duplicate: exercises result sharing and the
					// persistent cache under corruption.
					body = `{"workload":"li","scale":0.02,"ports":"3+2","opt":true}`
				case i%7 == 1:
					body = fmt.Sprintf(`{"program":%q,"ports":%q}`,
						soakProgram, portCfgs[rng.Intn(len(portCfgs))])
				default:
					body = fmt.Sprintf(`{"workload":%q,"scale":0.02,"ports":%q,"opt":%v,"maxinsts":%d}`,
						workloads[rng.Intn(len(workloads))],
						portCfgs[rng.Intn(len(portCfgs))],
						rng.Intn(2) == 0,
						2000+rng.Intn(4)*1000)
				}

				storm := i%stormSlice == 4
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if storm {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(15))*time.Millisecond)
				}

				var reqBody io.Reader = strings.NewReader(body)
				if !storm && i%9 == 5 {
					// Slow client: dribble the body so the handler's read
					// path sees a stalling peer.
					pr, pw := io.Pipe()
					go func(chunks []string) {
						for _, ch := range chunks {
							io.WriteString(pw, ch)
							time.Sleep(2 * time.Millisecond)
						}
						pw.Close()
					}([]string{body[:len(body)/2], body[len(body)/2:]})
					reqBody = pr
				}

				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", reqBody)
				if err != nil {
					cancel()
					t.Errorf("%s/%d: building request: %v", client, i, err)
					continue
				}
				req.Header.Set("X-Client", client)
				resp, err := ts.Client().Do(req)
				cancel()
				if err != nil {
					// Only a cancel storm may kill the request client-side.
					if !storm {
						t.Errorf("%s/%d: transport error outside a cancel storm: %v", client, i, err)
					}
					record(soakResponse{Client: client, Seq: i, Body: body,
						ClientErr: err.Error(), CancelStor: storm}, "client-canceled")
					continue
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()

				r := soakResponse{Client: client, Seq: i, Body: body,
					Status: resp.StatusCode, CancelStor: storm}
				if !soakStatuses[resp.StatusCode] {
					t.Errorf("%s/%d: undocumented status %d:\n%s", client, i, resp.StatusCode, data)
				}
				if resp.StatusCode == http.StatusOK {
					var res serve.JobResult
					if err := json.Unmarshal(data, &res); err != nil || res.Schema != serve.ResultSchema {
						t.Errorf("%s/%d: malformed result (err %v):\n%s", client, i, err, data)
					}
					record(r, "ok")
				} else {
					var eb serve.ErrorBody
					if err := json.Unmarshal(data, &eb); err != nil || eb.Kind == "" {
						t.Errorf("%s/%d: untyped error body (err %v):\n%s", client, i, err, data)
					}
					if (eb.Kind == "watchdog" || eb.Kind == "max-cycles") && eb.Snapshot == "" {
						t.Errorf("%s/%d: %s failure without a pipeline snapshot", client, i, eb.Kind)
					}
					r.Kind = eb.Kind
					record(r, "error:"+eb.Kind)
				}
			}
		}(c)
	}
	wg.Wait()
	close(corruptorStop)
	corruptorDone.Wait()

	// Cancel-storm jobs may still be running server-side; the queue and
	// pool must go quiet on their own before the drain.
	var z serve.Statz
	deadline := time.Now().Add(30 * time.Second)
	for {
		z = fetchStatz(t, ts.URL)
		if z.InFlight == 0 && z.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never went quiet: %+v", z)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every admitted job reached a typed terminal state.
	if z.Completed == 0 {
		t.Error("soak completed zero jobs")
	}
	if got := census["ok"]; got == 0 {
		t.Error("no OK responses recorded")
	}
	if census["error:bad-request"] == 0 || census["error:bad-json"] == 0 {
		t.Errorf("malformed-request paths not exercised: %v", census)
	}
	if census["error:max-cycles"] == 0 || z.Retries == 0 {
		t.Errorf("failed first attempts not exercised: census %v, %d retries", census, z.Retries)
	}
	if z.Cache.Writes == 0 {
		t.Error("persistent cache never written")
	}
	t.Logf("census: %v", census)
	t.Logf("statz: completed=%d failed=%d canceled=%d retries=%d shed=[%d %d %d] cache=%+v corrupted_files=%d",
		z.Completed, z.Failed, z.Canceled, z.Retries,
		z.ShedQueueFull, z.ShedClientLimit, z.ShedDraining, z.Cache, filesCorrupted.Load())

	// Graceful drain under a generous deadline must be clean (nil error),
	// and the goroutine count must return to the pre-soak baseline.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Shutdown(dctx); err != nil {
		t.Fatalf("drain was forced: %v", err)
	}
	ts.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d at baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	writeServiceSoakReport(t, z, census, responses)
}

func fetchStatz(t *testing.T, base string) serve.Statz {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var z serve.Statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	return z
}

// writeSoakReport persists the /statz dump and the response census (plus,
// on failure, every observed response) for CI artifact upload.
func writeServiceSoakReport(t *testing.T, z serve.Statz, census map[string]int, responses []soakResponse) {
	dir := os.Getenv("SERVICE_SOAK_REPORT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("soak report: %v", err)
		return
	}
	dump := struct {
		Statz  serve.Statz    `json:"statz"`
		Census map[string]int `json:"census"`
	}{z, census}
	if data, err := json.MarshalIndent(dump, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "service-soak-statz.json"), data, 0o644)
	}
	if t.Failed() {
		if data, err := json.MarshalIndent(responses, "", "  "); err == nil {
			os.WriteFile(filepath.Join(dir, "service-soak-responses.json"), data, 0o644)
		}
	}
}
