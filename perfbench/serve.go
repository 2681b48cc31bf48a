package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// maxConns is the most client connections (and sending goroutines)
// the load generator uses: the box's core count, so the generator
// never outnumbers the cores it shares with heraldd. Back-to-back
// bursts use one connection, which leaves the daemon a core of its own
// and keeps the burst timings from measuring time-sharing.
const maxConns = 2

// tenantMix is one tenant of a generated stream and the weights it
// draws its models with.
type tenantMix struct {
	name    string
	models  []string
	weights []float64
}

// serveTenants is the serve-steady mix: one light AR/VR model and two
// mobile classifiers, each tenant favouring one of them.
var serveTenants = []tenantMix{
	{"arvr", serveModels, []float64{0.8, 0.1, 0.1}},
	{"photos", serveModels, []float64{0.1, 0.7, 0.2}},
	{"assist", serveModels, []float64{0.1, 0.2, 0.7}},
}

var serveModels = []string{"brq-handpose", "mobilenetv1", "mobilenetv2"}

// serveReq is the POST /v1/requests body of one generated request.
type serveReq struct {
	Tenant       string `json:"tenant"`
	Model        string `json:"model"`
	ArrivalCycle int64  `json:"arrival_cycle"`
	Wait         bool   `json:"wait"`
}

func body(e capture.Entry) serveReq {
	return serveReq{Tenant: e.Tenant, Model: e.Model, ArrivalCycle: e.ArrivalCycle, Wait: true}
}

// bootstrapHDA repeats heraldd's default bootstrap search (edge class,
// NVDLA + Shi-diannao, 8/4 granularity, AR/VR-A, EDP), so in-process
// layers run on the HDA the daemon serves on.
func bootstrapHDA(cache *maestro.Cache) (*accel.HDA, error) {
	sp := dse.Space{Class: accel.Edge, Styles: []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao}, PEUnits: 8, BWUnits: 4}
	res, err := dse.Search(cache, sp, workload.ARVRA(), dse.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return res.Best.HDA, nil
}

// mixStream generates n requests: each picks a tenant uniformly and a
// model by that tenant's weights, and arrives a seeded uniform gap
// after the previous one, the gap averaging the slowest model's
// isolated latency on hda. One replica alone keeps up with that
// spacing, so a fleet stays under capacity however long the history
// grows. It also returns the gap.
func mixStream(cache *maestro.Cache, hda *accel.HDA, seed int64, tenants []tenantMix, n int) ([]capture.Entry, int64, error) {
	var names []string
	for _, t := range tenants {
		names = append(names, t.models...)
	}
	gap, err := isolatedGap(cache, hda, names)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]capture.Entry, n)
	var at int64
	for i := range out {
		t := tenants[rng.Intn(len(tenants))]
		u, k := rng.Float64(), 0
		for ; k < len(t.models)-1 && u >= t.weights[k]; k++ {
			u -= t.weights[k]
		}
		at += gap/2 + rng.Int63n(gap)
		out[i] = capture.Entry{Tenant: t.name, Model: t.models[k], ArrivalCycle: at}
	}
	return out, gap, nil
}

// daemon is one running heraldd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	mu     sync.Mutex
	log    bytes.Buffer  // guarded by mu
	logged chan struct{} // closed once the log output ends
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs heraldd (bootstrap DSE, two replicas, cost-aware
// routing) and waits until /v1/healthz answers 200. It returns the
// time from exec to that answer. It polls only after the daemon logs
// that it is listening, so the polls do not compete with its start-up
// for the CPU.
func startDaemon(bin string, client *http.Client) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, logged: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-class", "edge", "-replicas", "2", "-fleet-policy", "cost-aware")
	out, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	listening := make(chan struct{})
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(out)
		seen := false
		for sc.Scan() {
			d.mu.Lock()
			d.log.Write(sc.Bytes())
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if !seen && bytes.Contains(sc.Bytes(), []byte("listening on")) {
				seen = true
				close(listening)
			}
		}
	}()
	select {
	case <-listening:
	case <-d.logged: // exited before listening; the polls below fail fast
	case <-time.After(60 * time.Second):
	}
	for time.Since(start) < 60*time.Second && !closed(d.logged) {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	return nil, 0, fmt.Errorf("heraldd did not become healthy; log:\n%s", d.log.String())
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, waits for the daemon to exit, and returns its
// peak resident memory in MB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine; Wait reports it
	select {
	case <-d.logged: // the daemon closed its log: it has exited
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logged
	}
	_ = d.cmd.Wait() // the exit status of a signalled daemon carries nothing to check
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
	}}
}

// post sends one request and checks the reply is 200 with a done
// record.
func post(client *http.Client, base string, body []byte) error {
	resp, err := client.Post(base+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var rec struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return err
	}
	if rec.Status != "done" {
		return fmt.Errorf("record status %q", rec.Status)
	}
	return nil
}

// phase is the outcome of sending a slice of the stream.
type phase struct {
	Attempted, Failed int
	Wall              time.Duration
	Latency           []float64 // ms from due time (paced) or send time (back to back)
	Late              []float64 // ms the generator sent after the due time (paced only)
	Start             time.Time
	Sent, Done        []time.Duration // send and completion offsets from Start
	firstErr          error
}

// send drives reqs through conns connections. With rate 0 the
// connections send back to back (closed loop); with rate > 0 request i
// is due at i/rate seconds after the start and latency is timed from
// its due time (open loop).
func send(client *http.Client, base string, reqs []capture.Entry, rate float64, conns int, tr *tracer, parent int64) *phase {
	bodies := make([][]byte, len(reqs))
	for i, e := range reqs {
		bodies[i], _ = json.Marshal(body(e)) // plain struct; cannot fail
	}
	p := &phase{Attempted: len(reqs), Latency: make([]float64, len(reqs)), Sent: make([]time.Duration, len(reqs)), Done: make([]time.Duration, len(reqs))}
	due := make([]time.Duration, len(reqs))
	queue := make(chan int, len(reqs)) // holds the whole phase: an open loop never blocks on its sender
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	p.Start = start
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				p.Sent[i] = time.Since(start)
				_, end := tr.open("http.POST", parent, int64(i))
				err := post(client, base, bodies[i])
				end()
				doneAt := time.Since(start)
				p.Done[i] = doneAt
				from := p.Sent[i]
				if rate > 0 {
					from = due[i]
				}
				p.Latency[i] = ms(doneAt - from)
				if err != nil {
					mu.Lock()
					p.Failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range reqs {
		if rate > 0 {
			due[i] = time.Duration(float64(i) / rate * float64(time.Second))
			if d := due[i] - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	p.Wall = time.Since(start)
	if rate > 0 {
		p.Late = lateness(due, p.Sent)
	}
	return p
}

// serveRounds fixes the serve-steady volumes from the run length, so
// every run with the same -seconds sends the same stream. Each round
// is a back-to-back burst followed by a paced slice; interleaving many
// short rounds spreads both kinds of sample across the whole run, so
// a garbage collection or a noisy moment on a shared box moves a few
// samples rather than a whole phase.
func serveRounds(budget time.Duration) int { return max(8, int(budget/time.Second)) }

const (
	burst     = 1000 // requests per back-to-back burst
	pacedN    = 250  // requests per paced slice: its p90 has 25 samples beyond it
	pacedRate = 400  // req/s; well under the ~5k req/s one connection saturates at
	setups    = 15   // daemon starts timed for setup_s
)

func measureServe(r *run) error {
	// This process is only the load generator here. Collecting its
	// small heap every few hundred requests would put its collections
	// in the middle of the bursts it times.
	debug.SetGCPercent(800)
	client := newClient()
	defer client.CloseIdleConnections()
	var setup []float64
	var d *daemon
	for i := range setups {
		dd, took, err := startDaemon(r.heraldd, client)
		if err != nil {
			return err
		}
		setup = append(setup, took.Seconds())
		if i < setups-1 {
			dd.stop()
			client.CloseIdleConnections()
			continue
		}
		d = dd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	cache := newCache()
	hda, err := bootstrapHDA(cache)
	if err != nil {
		return err
	}
	rounds := serveRounds(r.budget)
	stream, _, err := mixStream(cache, hda, r.seed, serveTenants, rounds*(burst+pacedN))
	if err != nil {
		return err
	}
	var bursts, p50s, p90s, lat, late []float64
	next := stream
	for range rounds {
		for k, n := range []int{burst, pacedN} {
			rate, conns := 0.0, 1
			if k == 1 {
				rate, conns = pacedRate, maxConns
			}
			p := send(client, d.base, next[:n], rate, conns, nil, 0)
			next = next[n:]
			r.attempted += int64(p.Attempted)
			r.failed += int64(p.Failed)
			if p.Failed > 0 {
				r.problems = append(r.problems, fmt.Sprintf("%d of %d requests failed; first: %v", p.Failed, p.Attempted, p.firstErr))
			}
			if k == 0 {
				bursts = append(bursts, p.Wall.Seconds())
				continue
			}
			v90, _ := percentile(p.Latency, 90)
			p50s, p90s = append(p50s, median(p.Latency)), append(p90s, v90)
			lat, late = append(lat, p.Latency...), append(late, p.Late...)
		}
	}

	var st struct {
		Submitted      int64 `json:"submitted"`
		Completed      int64 `json:"completed"`
		Failed         int64 `json:"failed"`
		MakespanCycles int64 `json:"makespan_cycles"`
	}
	if err := call(client, http.MethodPost, d.base+"/v1/drain", nil); err != nil {
		return err
	}
	if err := call(client, http.MethodGet, d.base+"/v1/fleet/stats", &st); err != nil {
		return err
	}
	r.check(st.Submitted == int64(len(stream)) && st.Completed == st.Submitted && st.Failed == 0,
		"fleet stats after drain: submitted %d completed %d failed %d, sent %d", st.Submitted, st.Completed, st.Failed, len(stream))
	stopped = true
	rss := d.stop()

	half := rounds / 2
	r.set("setup_s", median(setup), "s")
	// Bursts are averaged, not medianed: the daemon collects garbage
	// every few bursts, and a median would jump between bursts with and
	// without a collection.
	r.set("cold_s", mean(bursts[:half]), "s")
	r.set("warm_s", mean(bursts[half:]), "s")
	r.set("p50_ms", median(p50s), "ms")
	r.set("p90_ms", median(p90s), "ms")
	r.set("sim_mcycles", float64(st.MakespanCycles)/1e6, "Mcycle")
	p99, _ := percentile(lat, 99)
	lateP99, _ := percentile(late, 99)
	r.note("http_p50_ms", median(lat))
	r.note("http_p99_ms", map[string]any{"value": p99, "n": len(lat)})
	r.note("http_max_rps", burst/mean(bursts[half:]))
	r.note("paced", map[string]any{"rate_rps": pacedRate, "slices": len(p90s), "slice_size": pacedN})
	r.note("gen_late_ms", map[string]any{"n": len(late), "p50": median(late), "p99": lateP99})
	r.note("bursts_s", bursts)
	r.note("setups_s", setup)
	r.note("child_rss_peak_mb", rss)
	r.note("history_requests", len(stream))
	return nil
}

// call sends a bodiless request, expects 200, and decodes the reply
// into v unless v is nil.
func call(client *http.Client, method, url string, v any) error {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
