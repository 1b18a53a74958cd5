package main

// The serve workload: an open loop of seeded Poisson arrivals at three
// fixed rates through client → in-process gateway.Handler → two in-process
// serve nodes with one worker each, over at most serveConns client
// connections on loopback. Requests are POST /v1/check with wait:true over a
// seeded Zipf draw of (program, tool) pairs. Every request is timed from
// its due time, so a stalled connection charges the requests queued behind
// it. A closed-loop phase on the same connections measures capacity.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpufpx/internal/gateway"
	"gpufpx/internal/serve"
	"gpufpx/pkg/gpufpx"
)

const (
	serveNodes = 2
	serveConns = 2
	// serveZipfS is the Zipf exponent of program popularity.
	serveZipfS = 1.0
	// serveDeck is the number of requests in one deck of the mix.
	serveDeck = 300
	// serveP99LimitMS is the p99 latency limit max_rps is judged by.
	serveP99LimitMS = 400
	// serveCapacityShare is the share of the measuring time a traced run
	// adds for its closed-loop capacity phase, after the rate steps.
	serveCapacityShare = 0.12
	// calibIdle is how early a sender must be to time the calibration
	// kernel before its request; calibGap spaces the samples.
	calibIdle = 10 * time.Millisecond
	calibGap  = 100 * time.Millisecond
)

// serveRates are the fixed open-loop rates, frozen at the commit that
// defined the benchmark, and each step's share of the measuring time.
var serveRates = []struct {
	name  string
	rps   float64
	share float64
}{
	{"low", 20, 0.06},
	{"mid", 40, 0.88},
	{"high", 150, 0.06},
}

// serveTools is the tool pattern dealt over a deck in rank order: 60/20/20
// detector/analyzer/shadow.
var serveTools = []string{"detector", "detector", "detector", "analyzer", "shadow"}

type pair struct{ prog, tool string }

// buildDeck is the mix's fixed composition: serveDeck (program, tool)
// pairs, programs in proportion to their Zipf weights over a fixed ranking,
// tools dealt by serveTools. Counts go by largest remainder, so the least
// popular programs may get none. The ranking is a constant shuffle of the
// corpus, the same for every seed; its stream was picked so that the
// deck's slowest requests are a narrow band of 10–15 ms runs (see
// README.md).
func buildDeck(names []string) []pair {
	ranked := append([]string(nil), names...)
	rand.New(rand.NewPCG(0x5eed, 629)).Shuffle(len(ranked), func(i, k int) {
		ranked[i], ranked[k] = ranked[k], ranked[i]
	})
	var sum float64
	for i := range ranked {
		sum += 1 / math.Pow(float64(i+1), serveZipfS)
	}
	counts := make([]int, len(ranked))
	rem := make([]float64, len(ranked))
	order := make([]int, len(ranked))
	dealt := 0
	for i := range ranked {
		exact := serveDeck / math.Pow(float64(i+1), serveZipfS) / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		dealt += counts[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:serveDeck-dealt] {
		counts[i]++
	}
	deck := make([]pair, 0, serveDeck)
	for i, c := range counts {
		for range c {
			deck = append(deck, pair{ranked[i], serveTools[len(deck)%len(serveTools)]})
		}
	}
	return deck
}

// mix deals whole decks, each shuffled by the seeded stream: every deck's
// worth of requests has the same composition, and the seed orders them.
type mix struct {
	deck, hand []pair
	rng        *rand.Rand
}

func newMix(deck []pair, seed, stream uint64) *mix {
	return &mix{deck: deck, rng: rand.New(rand.NewPCG(seed, stream))}
}

func (m *mix) next() pair {
	if len(m.hand) == 0 {
		m.hand = append(m.hand[:0], m.deck...)
		m.rng.Shuffle(len(m.hand), func(i, k int) { m.hand[i], m.hand[k] = m.hand[k], m.hand[i] })
	}
	p := m.hand[0]
	m.hand = m.hand[1:]
	return p
}

// stepRequests sizes a rate step: rps × dur requests, rounded to whole
// decks once that is at least half a deck.
func stepRequests(rps float64, dur time.Duration) int {
	n := rps * dur.Seconds()
	if n < serveDeck/2 {
		return max(1, int(math.Round(n)))
	}
	return int(math.Round(n/serveDeck)) * serveDeck
}

// stack is the in-process fleet: serve nodes and a gateway, each behind a
// loopback HTTP server, and the benchmark's client.
type stack struct {
	nodes    []*serve.Server
	servers  []*http.Server
	serving  sync.WaitGroup
	gw       *gateway.Gateway
	gwClient *http.Client
	client   *http.Client
	url      string
}

// nodeAddrs maps the fleet's fixed node addresses ("serve-node-<i>:80") to
// their loopback listeners. The gateway knows the nodes by these names:
// rendezvous placement hashes node URLs, and with ephemeral ports in them
// each run would split the programs between the nodes differently.
var nodeAddrs sync.Map

// dialNode dials a fixed node name on its loopback listener and refuses
// every other address, so no request can leave the host.
func dialNode(ctx context.Context, network, addr string) (net.Conn, error) {
	real, ok := nodeAddrs.Load(addr)
	if !ok {
		return nil, fmt.Errorf("perfbench: refusing to dial %s", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real.(string))
}

func init() {
	// The gateway's health probes use http.DefaultTransport; route them
	// like the proxied requests, never through an environment proxy.
	t := http.DefaultTransport.(*http.Transport)
	t.Proxy = nil
	t.DialContext = dialNode
}

// startStack builds the fleet.
func startStack(e *env) (*stack, error) {
	st := &stack{
		gwClient: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * serveConns,
			DialContext:         dialNode,
		}},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
		}},
	}
	var urls []string
	for i := range serveNodes {
		n := serve.New(serve.Config{Workers: 1})
		n.Start()
		st.nodes = append(st.nodes, n)
		addr, err := st.listen(e.layerHandler("serve.handler", "gateway.handler", n.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		name := fmt.Sprintf("serve-node-%d", i)
		nodeAddrs.Store(name+":80", addr)
		urls = append(urls, "http://"+name)
	}
	gw, err := gateway.New(gateway.Config{Nodes: urls, Client: st.gwClient})
	if err != nil {
		st.close()
		return nil, err
	}
	gw.Start()
	st.gw = gw
	addr, err := st.listen(e.layerHandler("gateway.handler", "client.request", gw.Handler()))
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + addr
	return st, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return ln.Addr().String(), nil
}

// close shuts the fleet down and waits for every goroutine it started.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.client.CloseIdleConnections()
	for i := len(st.servers) - 1; i >= 0; i-- {
		_ = st.servers[i].Shutdown(ctx) // a timeout leaves Serve to return on its own
	}
	st.serving.Wait()
	if st.gw != nil {
		st.gw.Stop()
	}
	st.gwClient.CloseIdleConnections()
	for _, n := range st.nodes {
		_ = n.Drain(ctx) // jobs are all done: every request waited for its reply
	}
}

// layerHandler wraps h in a span named name when tracing is on. The
// request id travels in the tenant header, the one header the gateway
// forwards; admission control is off, so it changes no routing.
func (e *env) layerHandler(name, parent string, h http.Handler) http.Handler {
	if e.rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(gateway.HeaderTenant)
		if req == "" {
			h.ServeHTTP(w, r)
			return
		}
		id := e.rec.Begin(name, req, e.rec.Lookup(parent, req))
		h.ServeHTTP(w, r)
		e.rec.End(id)
	})
}

// check posts one synchronous check through the gateway and checks the
// returned report against the oracle. req, when set, is the trace request
// id.
func (st *stack) check(ctx context.Context, o *Oracle, p pair, req string) (uint64, error) {
	body, err := json.Marshal(serve.CheckRequest{Prog: p.prog, Tool: p.tool, Wait: true})
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+"/v1/check", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req != "" {
		hr.Header.Set(gateway.HeaderTenant, req)
	}
	resp, err := st.client.Do(hr)
	if err != nil {
		return 0, fmt.Errorf("%s/%s: %w", p.prog, p.tool, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("%s/%s: HTTP %d: %s", p.prog, p.tool, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("%s/%s: %w", p.prog, p.tool, err)
	}
	rep := &gpufpx.Report{Tool: v.Tool, Cycles: v.Cycles, Launches: v.Launches,
		Detector: v.Detector, Analyzer: v.Analyzer, Shadow: v.Shadow}
	return v.Cycles, o.checkReport(p.prog, p.tool, rep)
}

// arrival is one scheduled request.
type arrival struct {
	at time.Duration // due time from the step's start
	p  pair
}

// schedule draws n Poisson arrivals at rps.
func schedule(mx *mix, rps float64, n int) []arrival {
	out := make([]arrival, n)
	var t float64
	for i := range out {
		t += mx.rng.ExpFloat64() / rps
		out[i] = arrival{time.Duration(t * float64(time.Second)), mx.next()}
	}
	return out
}

// stepStats is one open-loop rate step's outcome.
type stepStats struct {
	lat, wait []float64 // ms from due time to reply, and to send
	reqs      []string  // trace request ids, in arrival order
	pairs     []pair
	attempted int
	errs      []error
}

// openLoop sends sched on serveConns connections: each sender takes the
// next arrival, waits for its due time if early, and sends it. Latency
// runs from the due time. With a meter, a sender that is more than
// calibIdle early times the calibration kernel first, at most once per
// calibGap over both senders, so the samples use idle time and spread over
// the step.
func openLoop(ctx context.Context, e *env, st *stack, mt *meter, step string, sched []arrival) *stepStats {
	ss := &stepStats{
		lat:   make([]float64, len(sched)),
		wait:  make([]float64, len(sched)),
		reqs:  make([]string, len(sched)),
		pairs: make([]pair, len(sched)),
	}
	errs := make([]error, len(sched))
	var next atomic.Int64
	var nextSample atomic.Int64 // ns since t0
	var wg sync.WaitGroup
	t0 := time.Now()
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := t0.Add(a.at)
				if now := time.Since(t0); mt != nil && a.at-now > calibIdle {
					if at := nextSample.Load(); int64(now) >= at && nextSample.CompareAndSwap(at, int64(now+calibGap)) {
						mt.sample()
					}
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				var req string
				var span int
				if e.traced() {
					req = fmt.Sprintf("%s-%d", step, i)
					span = e.rec.BeginAt("client.request", req, 0, due)
				}
				_, errs[i] = st.check(ctx, e.oracle, a.p, req)
				if span != 0 {
					e.rec.End(span)
				}
				ss.lat[i] = ms(time.Since(due))
				ss.wait[i] = ms(sent.Sub(due))
				ss.reqs[i] = req
				ss.pairs[i] = a.p
			}
		}()
	}
	wg.Wait()
	ss.attempted = len(sched)
	for _, err := range errs {
		if err != nil {
			ss.errs = append(ss.errs, err)
		}
	}
	return ss
}

// backlogGrew reports a growing backlog: senders fell further behind
// schedule over the step, the median lateness of its last tenth exceeding
// that of its first tenth by more than a quarter of the p99 limit.
func backlogGrew(wait []float64) bool {
	n := len(wait) / 10
	if n == 0 {
		return false
	}
	return median(wait[len(wait)-n:])-median(wait[:n]) > serveP99LimitMS/4
}

// closedLoop keeps serveConns requests in flight until dur has passed and
// a whole number of decks is sent, and returns each deck's completed
// requests per second. With traceOdd set, the requests of odd-numbered
// decks carry trace ids, so traced and untraced decks interleave.
func closedLoop(ctx context.Context, e *env, st *stack, mx *mix, dur time.Duration, traceOdd bool, res *result) []float64 {
	var mu sync.Mutex
	var sent int
	var stopped bool
	t0 := time.Now()
	done := []time.Duration{0}
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if sent%serveDeck == 0 && time.Now().After(deadline) {
					stopped = true
				}
				if stopped {
					mu.Unlock()
					return
				}
				p, n := mx.next(), sent
				sent++
				mu.Unlock()
				var req string
				var span int
				if traceOdd && (n/serveDeck)%2 == 1 {
					req = fmt.Sprintf("cap-%d", n)
					span = e.rec.Begin("client.request", req, 0)
				}
				_, err := st.check(ctx, e.oracle, p, req)
				if span != 0 {
					e.rec.End(span)
				}
				mu.Lock()
				res.check(err)
				done = append(done, time.Since(t0))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var rates []float64
	for i := serveDeck; i < len(done); i += serveDeck {
		rates = append(rates, serveDeck/(done[i]-done[i-serveDeck]).Seconds())
	}
	return rates
}

func runServe(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	m := res.metrics
	names := programNames()
	if e.traced() {
		if err := setupLayers(ctx, names, m); err != nil {
			return nil, err
		}
	}

	// Set-up: a fresh fleet and one warm pass of every program × tool
	// through the gateway, which fills the compile cache and yields the
	// slowdowns.
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var warm []runOut
	cal := newMeter(serveKernel, serveConns)
	setup, err := medianSetup(cal, func() (time.Duration, error) {
		t0 := time.Now()
		if st != nil {
			st.close()
		}
		var err error
		if st, err = startStack(e); err != nil {
			return 0, err
		}
		start := time.Since(t0)
		var pass time.Duration
		warm, pass = runPass(corpusJobs(names), serveConns, cal, func(j job) runOut {
			c, err := st.check(ctx, e.oracle, pair(j), "")
			return runOut{job: j, cycles: c, err: err}
		})
		return start + pass, nil
	})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup
	cycles := map[string]uint64{}
	for _, o := range warm {
		res.check(o.err)
		cycles[runKey(o.prog, o.tool)] = o.cycles
	}
	if res.failed > 0 {
		return res, nil // the failures are the result; the rest needs their outputs
	}
	if err := slowdowns(cycles, names, m); err != nil {
		return nil, err
	}
	var facade map[pair]float64
	if e.traced() {
		facade, err = facadeTimes(ctx, names)
		if err != nil {
			return nil, err
		}
	}

	hotDone := hotTier(m)
	routedBefore := st.gw.NodeStats()
	deck := buildDeck(names)
	mx := newMix(deck, e.seed, 2)

	// Untraced runs normalise each step's latencies by the calibration
	// samples taken during it; a traced run reports raw latencies.
	var mt *meter
	if !e.traced() {
		mt = cal
	}
	var maxRPS float64
	var lateness, handler, srvSelf, gwSelf []float64
	for _, r := range serveRates {
		sched := schedule(mx, r.rps, stepRequests(r.rps, time.Duration(float64(e.seconds)*r.share)))
		if mt != nil {
			mt.reset()
		}
		ss := openLoop(ctx, e, st, mt, r.name, sched)
		res.attempted += ss.attempted
		for _, err := range ss.errs {
			res.fail("%v", err)
		}
		scale := 1.0
		if mt != nil {
			scale = mt.take()
		}
		rawP50, rawP99 := quantile(ss.lat, 0.5), quantile(ss.lat, 0.99)
		p50, p99 := rawP50*scale, rawP99*scale
		grew := backlogGrew(ss.wait)
		if p99 <= serveP99LimitMS && !grew && len(ss.errs) == 0 {
			maxRPS = r.rps
		}
		m["serve.p99_ms."+r.name] = p99
		m["serve.wait_p99_ms."+r.name] = quantile(ss.wait, 0.99)
		m["serve.requests."+r.name] = float64(ss.attempted)
		if grew {
			m["serve.backlog_grew."+r.name] = 1
		} else {
			m["serve.backlog_grew."+r.name] = 0
		}
		if r.name == "mid" {
			m["p50_ms"], m["p99_ms"] = p50, p99
			m["serve.p50_ms.mid"] = p50
			m["raw.p50_ms"], m["raw.p99_ms"] = rawP50, rawP99
		}
		lateness = append(lateness, ss.wait...)
		if e.traced() {
			gw := e.rec.Durations("gateway.handler")
			srv := e.rec.Durations("serve.handler")
			for i, req := range ss.reqs {
				g, okG := gw[req]
				s, okS := srv[req]
				if !okG || !okS {
					continue
				}
				handler = append(handler, ms(s))
				gwSelf = append(gwSelf, ms(g-s))
				srvSelf = append(srvSelf, ms(s)-facade[ss.pairs[i]])
			}
		}
	}
	m["serve.max_rps"] = maxRPS
	m["host.calib_ms"] = cal.medianMS()

	m["ops_per_s"] = maxRPS

	if e.traced() {
		// Capacity last, on a system the open loop has warmed: the median
		// over decks of a closed loop's completed requests per second. Odd
		// decks are traced; the ratio of the untraced to the traced median
		// is the tracing overhead. The closed loop sends as many requests as
		// it has time for, so it draws from its own stream.
		closed := newMix(deck, e.seed, 1)
		rates := closedLoop(ctx, e, st, closed, time.Duration(float64(e.seconds)*serveCapacityShare), true, res)
		var plain, traced []float64
		for i, r := range rates {
			if i%2 == 0 {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
		}
		m["serve.capacity_rps"] = median(plain)
		if len(traced) > 0 {
			m["trace.overhead"] = median(plain)/median(traced) - 1
		}
	}
	hotDone()

	var routed []float64
	for i, n := range st.gw.NodeStats() {
		routed = append(routed, float64(n.Routed-routedBefore[i].Routed))
	}
	var most float64
	for _, r := range routed {
		most = max(most, r)
	}
	m["gateway.node_skew"] = most / max(mean(routed), 1)
	m["client.wait_ms.p99"] = quantile(lateness, 0.99)
	if e.traced() {
		m["serve.handler_ms.p50"] = quantile(handler, 0.5)
		m["serve.handler_ms.p99"] = quantile(handler, 0.99)
		m["serve.self_ms.p50"] = quantile(srvSelf, 0.5)
		m["gateway.self_ms.p50"] = quantile(gwSelf, 0.5)
		selfTimeMetrics(e.rec, len(e.rec.Durations("client.request")), m)
	}
	return res, nil
}

// facadeTimes times one direct Session.Run of every (program, tool) pair
// the mix can draw, on warm caches: the execution share of a request's
// handler time.
func facadeTimes(ctx context.Context, names []string) (map[pair]float64, error) {
	sess := toolSessions()
	out := map[pair]float64{}
	for _, p := range names {
		for _, t := range toolNames[1:] {
			t0 := time.Now()
			if _, err := sess[t].Run(ctx, gpufpx.Program(p)); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p, t, err)
			}
			out[pair{p, t}] = ms(time.Since(t0))
		}
	}
	return out, nil
}
