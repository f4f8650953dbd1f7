// Command fftserved serves FFT transforms over HTTP on top of the batched,
// backpressured serving layer (internal/serve): requests of any rank share
// a bounded plan cache, same-shape 1D requests coalesce into single batched
// pencil executions, and shutdown drains in-flight work before exiting.
//
// Endpoints:
//
//	POST /transform     {"rank":1,"dims":[4096],"inverse":false,"data":[re,im,...]}
//	                    → {"data":[re,im,...]}
//	                    or, with Content-Type: application/octet-stream,
//	                    ?dims=4096[&inverse=true] and the same numbers as raw
//	                    little-endian float64 under an X-Shard-Crc32c header
//	GET  /metrics       Prometheus text exposition: request counters, latency
//	                    histogram, queue/cache gauges, and per-plan per-stage
//	                    bandwidth vs. the roofline
//	GET  /metrics.json  the same counters as a JSON snapshot
//	GET  /healthz       200 while serving, 503 once draining
//	GET  /debug/pprof/  Go profiling endpoints (only with -pprof)
//
// Complex data crosses the wire as interleaved re,im float64 pairs, so a
// rank-r request carries 2·∏dims numbers. Setting "real":true selects the
// real-input (r2c/c2r) pipeline: dims describe the real grid (last dim
// even), a forward request carries ∏dims plain reals and returns the
// Hermitian half spectrum (last dim n/2+1) as interleaved pairs, and an
// inverse request carries the half spectrum and returns ∏dims reals.
//
// The roofline the per-stage bandwidth gauges are normalized against comes
// from -roofline (GB/s), or from -machine (a paper machine's published
// STREAM figure), or — when neither is given — from a DRAM copy measured at
// startup (stream.DRAMCopyGBs): two 4 MiB arrays evicted from every cache
// level before each of six copies, about 13 ms and 8 MiB. On a 2-vCPU Xeon
// with a 300 MiB L3 it mostly reads 9–12 GB/s (7.7–13.9 over 35 starts)
// beside 9.7–11.6 GB/s for the median of nine copies of 2×1 GiB. Where no
// cache-flush kernel exists (non-amd64, purego builds) the roofline stays
// unknown and the FracPeak gauges read 0.
//
// The -selftest N mode starts the server on a loopback port, fires N
// concurrent mixed-shape requests at it, verifies round trips, the
// /healthz endpoint and both metric surfaces (the Prometheus text must
// parse cleanly and carry finite per-stage bandwidth gauges), then drains
// and exits — the `make servesmoke` and `make obssmoke` targets.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/flightrec"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/wire"
)

// buildInfo identifies this binary in /metrics (fft_build_info) and in the
// fleet exposition: version, vcs commit, kernel tier, detected CPU features,
// GOMAXPROCS.
var buildInfo = obs.ReadBuildInfo(kernels.Tier(), cpufeat.Summary())

func main() {
	var (
		addr        = flag.String("addr", ":8123", "HTTP listen address")
		queue       = flag.Int("queue", 256, "submit queue depth")
		maxBatch    = flag.Int("maxbatch", 16, "max same-shape 1D requests coalesced per execution (1 disables)")
		executors   = flag.Int("executors", 2, "concurrent batch executors")
		cacheCap    = flag.Int("cachecap", 32, "plan cache capacity")
		policy      = flag.String("policy", "block", "full-queue policy: block or reject")
		machineName = flag.String("machine", "", "paper machine whose STREAM peak normalizes the bandwidth gauges (substring match, e.g. \"7700k\")")
		roofline    = flag.Float64("roofline", 0, "DRAM copy peak in GB/s for the bandwidth gauges (0 = measure a cache-evicted copy at startup, or take it from -machine)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		selftest    = flag.Int("selftest", 0, "fire N concurrent smoke requests at a loopback instance and exit")

		shardWorkerOn = flag.Bool("shardworker", false, "serve distributed shard worker endpoints under /shard/")
		peers         = flag.String("peers", "", "comma-separated worker base URLs; enables coordinator mode for sharded /transform requests")
		shardSelftest = flag.Int("shardselftest", 0, "boot a loopback shard cluster, round-trip an N³ cube sharded vs single-node, validate /metrics, and exit")

		logFormat     = flag.String("logformat", "text", "structured log format: text or json")
		logLevel      = flag.String("loglevel", "info", "log level: debug, info, warn or error")
		flightrecCap  = flag.Int("flightrec", 64, "flight recorder depth: last N requests under /debug/flightrec (0 disables)")
		traceSelftest = flag.Bool("traceselftest", false, "boot a loopback 3-worker cluster, run a traced sharded transform, validate the merged Perfetto timeline, /metrics/fleet and /debug/flightrec, and exit")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		log.Fatalf("fftserved: %v", err)
	}

	var pol serve.Policy
	switch *policy {
	case "block":
		pol = serve.Block
	case "reject":
		pol = serve.Reject
	default:
		log.Fatalf("fftserved: -policy must be block or reject, got %q", *policy)
	}

	cfg := core.Default()
	if *machineName != "" {
		m, err := machine.Lookup(*machineName)
		if err != nil {
			log.Fatalf("fftserved: %v", err)
		}
		cfg.RooflineGBs = m.StreamGBs
	}
	if *roofline > 0 {
		cfg.RooflineGBs = *roofline
	}
	if cfg.RooflineGBs == 0 {
		// One cache-evicted DRAM copy so FracPeak gauges are meaningful out
		// of the box; -roofline skips this for reproducible normalization.
		cfg.RooflineGBs = stream.DRAMCopyGBs()
		if cfg.RooflineGBs > 0 {
			log.Printf("fftserved: measured DRAM copy roofline %.1f GB/s", cfg.RooflineGBs)
		} else {
			log.Printf("fftserved: no cache-flush kernel on this build; roofline unknown")
		}
		// The measurement's arrays are 8 MiB of garbage the first requests'
		// operands would otherwise be stacked on top of until the next GC.
		debug.FreeOSMemory()
	}

	if *shardSelftest > 0 {
		if err := runShardSelftest(cfg, *shardSelftest); err != nil {
			log.Fatalf("fftserved: shard selftest failed: %v", err)
		}
		fmt.Println("fftserved: shard selftest ok")
		return
	}
	if *traceSelftest {
		if err := runTraceSelftest(cfg); err != nil {
			log.Fatalf("fftserved: trace selftest failed: %v", err)
		}
		fmt.Println("fftserved: trace selftest ok")
		return
	}

	// Coordinator mode: sharded /transform requests fan out across the
	// worker fleet named by -peers. The same peer list feeds the
	// /metrics/fleet aggregation.
	var runner serve.ShardRunner
	var coord *shard.Coordinator
	var fleetPeers []string
	if *peers != "" {
		nodes := strings.Split(*peers, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		var err error
		coord, err = shard.NewCoordinator(shard.CoordinatorOptions{Nodes: nodes, Logger: logger})
		if err != nil {
			log.Fatalf("fftserved: %v", err)
		}
		runner = coordRunner{coord}
		fleetPeers = nodes
		log.Printf("fftserved: coordinating %d shard workers", len(nodes))
	}

	s := serve.New(serve.Options{
		Config:        cfg,
		QueueDepth:    *queue,
		MaxBatch:      *maxBatch,
		Executors:     *executors,
		CacheCapacity: *cacheCap,
		Policy:        pol,
		ShardRunner:   runner,
		Logger:        logger,
	})
	h := &handler{s: s, pprof: *pprofOn, coord: coord, fleetPeers: fleetPeers}
	if *flightrecCap > 0 {
		h.flight = flightrec.New(*flightrecCap)
	}
	if *shardWorkerOn {
		h.worker = shard.NewWorker(shard.WorkerOptions{Logger: logger})
		log.Print("fftserved: shard worker endpoints mounted under /shard/")
	}

	if *selftest > 0 {
		if err := runSelftest(h, *selftest); err != nil {
			log.Fatalf("fftserved: selftest failed: %v", err)
		}
		fmt.Println("fftserved: selftest ok")
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: h.mux()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("fftserved: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Drain order matters for the shard tier: /healthz flips to 503
		// immediately (both drain flags), but HTTP must keep answering
		// until the last in-flight exchange chunk settles — a worker
		// receives exchange traffic over this very listener. Only then
		// does the HTTP server itself shut down.
		if h.worker != nil {
			h.worker.BeginDrain()
		}
		if err := s.Shutdown(ctx); err != nil {
			log.Printf("fftserved: drain: %v", err)
		}
		if h.worker != nil {
			if err := h.worker.Drain(ctx); err != nil {
				log.Printf("fftserved: shard drain: %v", err)
			}
			h.worker.Close()
		}
		_ = httpSrv.Shutdown(ctx)
	}()
	log.Printf("fftserved: listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("fftserved: %v", err)
	}
}

// buildLogger maps the -logformat/-loglevel flags to a slog.Logger.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-loglevel must be debug, info, warn or error, got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("-logformat must be text or json, got %q", format)
}

type handler struct {
	s          *serve.Server
	worker     *shard.Worker      // non-nil when -shardworker mounts /shard/
	coord      *shard.Coordinator // non-nil in coordinator mode (-peers)
	flight     *flightrec.Recorder
	fleetPeers []string // worker base URLs scraped by /metrics/fleet
	pprof      bool
}

func (h *handler) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/transform", h.transform)
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/metrics/fleet", h.metricsFleet)
	mux.HandleFunc("/metrics.json", h.metricsJSON)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/debug/trace/", h.debugTrace)
	if h.flight != nil {
		mux.Handle("/debug/flightrec", h.flight)
	}
	if h.worker != nil {
		mux.Handle("/shard/", h.worker.Handler())
	}
	if h.pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// transform serves POST /transform in the two framings of internal/wire,
// selected per request: a body is binary when its Content-Type is
// application/octet-stream and JSON otherwise, and the reply takes the
// framing Accept names, or the request's own. Operands are decoded straight
// into the slices the serving layer transforms and the result is encoded
// straight out of them; JSON replies are byte-identical to encoding/json's.
//
// Both framings bound a request before they allocate for it: ∏dims is
// multiplied with overflow checks and capped at wire.MaxElems (413), and the
// body may not exceed what the declared shape can occupy (413). Of
// encoding/json's leniencies the JSON framing keeps insignificant
// whitespace, any order of the members before "data", and omitted
// inverse/real/sharded. It answers 400 to what encoding/json let through:
// unknown members, duplicate members, member names in any other case
// ("Rank"), null values, "data" anywhere but last, bytes after the closing
// brace, and number tokens longer than wire.MaxNumberLen bytes. A binary
// body must be exactly the shape's bytes (400) and match its CRC32-C (422).
// A result that overflowed to ±Inf or NaN has no JSON form: the JSON framing
// answers 422 naming the first such value, the binary framing returns it.
func (h *handler) transform(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	entered := time.Now()
	x, err := wire.ReadRequest(w, r)
	if err != nil {
		http.Error(w, err.Error(), wire.Status(err))
		return
	}
	res := x.NewResult()
	req := serve.Request{
		Rank: x.Rank, Dims: x.Dims, Inverse: x.Inverse, Real: x.Real, Sharded: x.Sharded,
		Src: x.Src, RealSrc: x.RealSrc, Dst: res.Dst, RealDst: res.RealDst,
	}

	// Every request gets a trace ID, echoed in the response header. For
	// sharded requests it rides the context into the coordinator, so the
	// whole fleet tags this transform's spans with it and the caller can
	// pull the merged timeline from /debug/trace/<id>.
	traceID := trace.NewTraceID()
	ctx := trace.ContextWithID(r.Context(), traceID)
	w.Header().Set("X-Trace-Id", traceID)

	start := time.Now()
	err = h.s.Do(ctx, req)
	done := time.Now()
	e := flightrec.Entry{
		Time: start, TraceID: traceID, Kind: requestKind(x.Shape),
		Dims: x.Dims, Rank: x.Rank, Inverse: x.Inverse,
		Duration: done.Sub(start), Status: "ok",
		Codec: string(x.Codec), Decode: start.Sub(entered), ReqBytes: x.ReqBytes,
	}
	status := http.StatusOK
	switch {
	case err == nil:
		e.RespBytes, err = wire.WriteResponse(w, x.Reply, res)
		var nf *wire.NonFiniteError
		if errors.As(err, &nf) { // refused before the header went out
			e.ErrKind, status = "nonfinite", wire.Status(err)
		} else if err != nil { // the client went away mid-body
			e.ErrKind = "write"
		}
	case errors.Is(err, serve.ErrOverloaded):
		e.ErrKind, status = "overloaded", http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrClosed):
		e.ErrKind, status = "closed", http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		e.ErrKind, status = "deadline", http.StatusRequestTimeout
	default:
		e.ErrKind, status = "invalid", http.StatusBadRequest
		if se, ok := shard.AsError(err); ok {
			e.ErrKind = se.Kind.String()
		}
	}
	if status != http.StatusOK {
		http.Error(w, err.Error(), status)
	}
	if err != nil {
		e.Status, e.Error = "error", err.Error()
	}
	e.Encode = time.Since(done)
	h.flight.Record(e)
}

// requestKind is the flight recorder's name for the pipeline a shape takes.
func requestKind(s wire.Shape) string {
	switch {
	case s.Sharded:
		return "shard"
	case s.Real:
		return "real"
	}
	return "complex"
}

// metrics serves the Prometheus text exposition: the serving layer's
// counters and latency histogram followed by the per-plan per-stage
// bandwidth gauges of every live collector in the process-wide registry.
// The two writers emit disjoint metric families, so concatenation is a
// valid exposition.
func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := h.writeMetrics(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// writeMetrics emits this node's full exposition: serving counters,
// per-plan bandwidth gauges, shard families, and the build-info gauge.
// All four writers emit disjoint metric families, so concatenation is a
// valid exposition.
func (h *handler) writeMetrics(buf *bytes.Buffer) error {
	if err := h.s.WritePrometheus(buf); err != nil {
		return err
	}
	if err := obs.Default.WritePrometheus(buf); err != nil {
		return err
	}
	if err := obs.ShardDefault.WritePrometheus(buf); err != nil {
		return err
	}
	return buildInfo.WritePrometheus(buf)
}

// fleetClient scrapes peers for /metrics/fleet; bounded so one stuck peer
// cannot hang the aggregation.
var fleetClient = &http.Client{Timeout: 10 * time.Second}

// maxScrapeBytes caps one peer's /metrics body in a fleet scrape. A node's
// own exposition is tens of kilobytes; 8 MiB is far above any honest peer
// and keeps a broken or hostile one from growing the aggregator without
// bound (the parser alone allows 1 MiB a line and any number of lines).
const maxScrapeBytes = 8 << 20

// metricsFleet aggregates the fleet's expositions: this node's own metrics
// plus a live scrape of every -peers worker, each sample relabeled with a
// node label, re-emitted as one merged exposition.
func (h *handler) metricsFleet(w http.ResponseWriter, r *http.Request) {
	var local bytes.Buffer
	if err := h.writeMetrics(&local); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	exp, err := obs.ParseExposition(&local)
	if err != nil {
		http.Error(w, fmt.Sprintf("local exposition: %v", err), http.StatusInternalServerError)
		return
	}
	nodes := []obs.NodeExposition{{Node: "self", Exp: exp}}
	for _, peer := range h.fleetPeers {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, peer+"/metrics", nil)
		if err != nil {
			http.Error(w, fmt.Sprintf("peer %s: %v", peer, err), http.StatusInternalServerError)
			return
		}
		resp, err := fleetClient.Do(req)
		if err != nil {
			http.Error(w, fmt.Sprintf("scrape %s: %v", peer, err), http.StatusBadGateway)
			return
		}
		// One byte past the cap, so a body of exactly the cap still passes.
		body := &io.LimitedReader{R: resp.Body, N: maxScrapeBytes + 1}
		pexp, perr := obs.ParseExposition(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			http.Error(w, fmt.Sprintf("scrape %s: status %d", peer, resp.StatusCode), http.StatusBadGateway)
			return
		}
		if body.N == 0 {
			http.Error(w, fmt.Sprintf("scrape %s: exposition exceeds %d bytes", peer, maxScrapeBytes), http.StatusBadGateway)
			return
		}
		if perr != nil {
			http.Error(w, fmt.Sprintf("scrape %s: %v", peer, perr), http.StatusBadGateway)
			return
		}
		nodes = append(nodes, obs.NodeExposition{Node: peer, Exp: pexp})
	}
	var out bytes.Buffer
	if err := obs.WriteFleet(&out, nodes); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(out.Bytes())
}

// debugTrace serves the merged Perfetto timeline of one sharded transform:
// GET /debug/trace/<id> (or /debug/trace/last) gathers every fleet
// member's span slice over /shard/trace and emits one Chrome trace_event
// JSON document, loadable directly in ui.perfetto.dev.
func (h *handler) debugTrace(w http.ResponseWriter, r *http.Request) {
	if h.coord == nil {
		http.Error(w, "not a shard coordinator (start with -peers)", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" || id == "last" {
		id = h.coord.LastTraceID()
	}
	if id == "" {
		http.Error(w, "no traces retained yet", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	if err := h.coord.WriteMergedTrace(r.Context(), &buf, id); err != nil {
		if se, ok := shard.AsError(err); ok && se.Kind == shard.KindProtocol {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func (h *handler) metricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.s.Stats())
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	if !h.s.Healthy() || (h.worker != nil && h.worker.Draining()) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// runSelftest exercises the full HTTP surface against a loopback instance:
// total concurrent round trips across mixed shapes, endpoint checks, and a
// drain that must account for every request.
func runSelftest(h *handler, total int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h.mux()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	if err := checkHealthz(base, http.StatusOK); err != nil {
		return err
	}

	// Every rank and both pipelines in JSON, and one shape per rank again
	// through the binary framing.
	shapes := []struct {
		shape wire.Shape
		bin   bool
	}{
		{shape: wire.Shape{Rank: 1, Dims: [3]int{256}}},
		{shape: wire.Shape{Rank: 1, Dims: [3]int{1024}}},
		{shape: wire.Shape{Rank: 2, Dims: [3]int{32, 32}}},
		{shape: wire.Shape{Rank: 3, Dims: [3]int{8, 8, 8}}},
		{shape: wire.Shape{Rank: 1, Dims: [3]int{512}, Real: true}},
		{shape: wire.Shape{Rank: 2, Dims: [3]int{16, 32}, Real: true}},
		{shape: wire.Shape{Rank: 3, Dims: [3]int{8, 8, 16}, Real: true}},
		{shape: wire.Shape{Rank: 1, Dims: [3]int{256}}, bin: true},
		{shape: wire.Shape{Rank: 2, Dims: [3]int{16, 32}, Real: true}, bin: true},
		{shape: wire.Shape{Rank: 3, Dims: [3]int{8, 8, 8}}, bin: true},
	}
	var wg sync.WaitGroup
	errCh := make(chan error, total)
	for g := 0; g < total; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := shapes[g%len(shapes)]
			if err := roundTrip(base, sh.shape, sh.bin, g); err != nil {
				errCh <- fmt.Errorf("request %d (%+v bin=%v): %w", g, sh.shape, sh.bin, err)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	var snap serve.Snapshot
	if err := getJSON(base+"/metrics.json", &snap); err != nil {
		return err
	}
	// Every smoke request is a forward+inverse pair.
	if want := uint64(2 * total); snap.Completed < want {
		return fmt.Errorf("/metrics.json: completed %d < %d submitted", snap.Completed, want)
	}
	if !snap.Healthy || snap.Failed != 0 {
		return fmt.Errorf("/metrics.json: unexpected state %+v", snap)
	}
	if err := checkPrometheus(base, snap.Completed); err != nil {
		return err
	}
	fmt.Printf("fftserved: %d requests, avg batch %.1f, p99 %s, cache %d/%d (%d hits)\n",
		snap.Completed, snap.AvgBatch, time.Duration(snap.P99LatencyNs),
		snap.Cache.Len, snap.Cache.Capacity, snap.Cache.Hits)
	fmt.Printf("fftserved: kernel tier %s, cpu features %s\n", buildInfo.KernelTier, buildInfo.CPUFeatures)

	// Drain: transform pipeline first so /healthz flips while HTTP still
	// answers, then the HTTP server.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := checkHealthz(base, http.StatusServiceUnavailable); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// roundTrip sends a forward transform of a seeded operand followed by an
// inverse of the result, in the JSON or the binary framing, and checks the
// pair composes to the identity. A real shape sends plain reals forward and
// must get the Hermitian half spectrum back — the r2c/c2r wire format end
// to end.
func roundTrip(base string, sh wire.Shape, bin bool, seed int) error {
	n, specElems := sh.Core().Lens(false)
	words, specWords := 2*n, 2*specElems
	if sh.Real {
		words = n
	}
	data := make([]float64, words)
	for i := range data {
		// Deterministic, seed-dependent, O(1)-range values.
		data[i] = math.Sin(float64(seed+1) * float64(i+1) * 0.7)
	}
	spec, err := postTransform(base, sh, data, bin)
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	if len(spec) != specWords {
		return fmt.Errorf("spectrum carries %d values, want %d", len(spec), specWords)
	}
	sh.Inverse = true
	back, err := postTransform(base, sh, spec, bin)
	if err != nil {
		return fmt.Errorf("inverse: %w", err)
	}
	if len(back) != words {
		return fmt.Errorf("inverse carries %d values, want %d", len(back), words)
	}
	for i := range data {
		if math.Abs(back[i]-data[i]) > 1e-9*float64(n) {
			return fmt.Errorf("round trip diverged at %d: %g vs %g", i, back[i], data[i])
		}
	}
	return nil
}

// jsonRequest and jsonResponse are the selftests' client side of the JSON
// framing. They go through encoding/json on purpose: the daemon's own codec
// is checked against an independent implementation of the format.
type jsonRequest struct {
	Rank    int       `json:"rank"`
	Dims    []int     `json:"dims"`
	Inverse bool      `json:"inverse"`
	Real    bool      `json:"real,omitempty"`
	Sharded bool      `json:"sharded,omitempty"`
	Data    []float64 `json:"data"`
}

type jsonResponse struct {
	Data []float64 `json:"data"`
}

func marshalJSONRequest(sh wire.Shape, data []float64) ([]byte, error) {
	return json.Marshal(jsonRequest{Rank: sh.Rank, Dims: sh.Dims[:sh.Rank],
		Inverse: sh.Inverse, Real: sh.Real, Sharded: sh.Sharded, Data: data})
}

// postTransform POSTs one operand (the data array's number stream) and
// returns the result's, through the binary framing or JSON.
func postTransform(base string, sh wire.Shape, data []float64, bin bool) ([]float64, error) {
	var resp *http.Response
	if bin {
		req, err := wire.NewBinaryRequest(base, sh, data)
		if err != nil {
			return nil, err
		}
		if resp, err = http.DefaultClient.Do(req); err != nil {
			return nil, err
		}
	} else {
		body, err := marshalJSONRequest(sh, data)
		if err != nil {
			return nil, err
		}
		if resp, err = http.Post(base+"/transform", "application/json", bytes.NewReader(body)); err != nil {
			return nil, err
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if bin {
		return wire.ReadBinaryResponse(resp)
	}
	var jresp jsonResponse
	if err := json.NewDecoder(resp.Body).Decode(&jresp); err != nil {
		return nil, err
	}
	return jresp.Data, nil
}

// checkPrometheus scrapes /metrics and validates the exposition the way a
// Prometheus server would: it must parse, declare no duplicate series,
// carry the request counters and latency histogram consistent with the
// JSON snapshot, include at least one per-stage bandwidth gauge from the
// plans the smoke requests built, and contain no NaN or infinite value.
func checkPrometheus(base string, completed uint64) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("/metrics: content type %q, want text/plain exposition", ct)
	}
	samples, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics: invalid exposition: %w", err)
	}

	var sawCompleted, sawHistogram, sawStageGBs, sawRealExec, sawComplexExec, sawBuildInfo bool
	for _, s := range samples {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("/metrics: %s is %v", s.Series(), s.Value)
		}
		switch s.Name {
		case "fft_build_info":
			if s.Value != 1 || s.Labels["kernel_tier"] == "" || s.Labels["version"] == "" ||
				s.Labels["cpu_features"] != cpufeat.Summary() {
				return fmt.Errorf("/metrics: malformed fft_build_info %s = %v", s.Series(), s.Value)
			}
			sawBuildInfo = true
		case "fft_requests_total":
			if s.Labels["result"] == "completed" {
				if uint64(s.Value) != completed {
					return fmt.Errorf("/metrics: completed counter %v, want %d", s.Value, completed)
				}
				sawCompleted = true
			}
		case "fft_request_duration_seconds_count":
			if s.Value <= 0 {
				return fmt.Errorf("/metrics: latency histogram empty after %d requests", completed)
			}
			sawHistogram = true
		case "fft_stage_bandwidth_gbps":
			if s.Value > 0 {
				sawStageGBs = true
			}
		case "fft_plan_executions_total":
			switch s.Labels["kind"] {
			case "real":
				sawRealExec = s.Value > 0
			case "complex":
				sawComplexExec = s.Value > 0
			}
		}
	}
	switch {
	case !sawCompleted:
		return errors.New("/metrics: missing fft_requests_total{result=\"completed\"}")
	case !sawHistogram:
		return errors.New("/metrics: missing fft_request_duration_seconds_count")
	case !sawStageGBs:
		return errors.New("/metrics: no positive fft_stage_bandwidth_gbps gauge from the smoke plans")
	case !sawRealExec || !sawComplexExec:
		return fmt.Errorf("/metrics: fft_plan_executions_total kind split missing (real=%v complex=%v)",
			sawRealExec, sawComplexExec)
	case !sawBuildInfo:
		return errors.New("/metrics: missing fft_build_info")
	}
	return nil
}

func getJSON(url string, into any) (err error) {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func checkHealthz(base string, want int) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("/healthz: status %d, want %d", resp.StatusCode, want)
	}
	return nil
}
