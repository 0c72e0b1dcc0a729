package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// newClient returns an HTTP client that keeps at most one connection open.
// The load generator uses two of them, one writer and one reader, so the
// system under test never sees more than two client connections.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 90 * time.Second,
	}
}

// phaseStats are the counts and timings of one phase.
type phaseStats struct {
	name      string
	attempted int
	failed    int
	latencyMS []float64 // per successful operation, from its due time
	dueMS     []float64 // open loop: each latencyMS sample's due time
	lateMS    []float64 // per request: how late the generator sent it
	errs      []string  // first few failure reasons
}

func (p *phaseStats) fail(n int, reason string) {
	p.failed += n
	if len(p.errs) < 5 {
		p.errs = append(p.errs, reason)
	}
}

// ingestReply is the part of the ingest response the generator checks.
type ingestReply struct {
	Waited   bool     `json:"waited"`
	Applied  int      `json:"applied"`
	Rejected int      `json:"rejected"`
	Errors   []string `json:"errors"`
}

// postUpdates sends upds as one request with "wait":true and reports
// whether every update was acknowledged as applied.
func postUpdates(ctx context.Context, hc *http.Client, url string, upds []update) error {
	var b bytes.Buffer
	b.WriteString(`{"wait":true,"updates":[`)
	for i, u := range upds {
		if i > 0 {
			b.WriteByte(',')
		}
		op := "add"
		if u.remove {
			op = "remove"
		}
		fmt.Fprintf(&b, `{"op":%q,"u":%d,"v":%d}`, op, u.e.u, u.e.v)
	}
	b.WriteString(`]}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/updates", &b)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var r ingestReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding ingest reply: %w", err)
	}
	if !r.Waited || r.Applied != len(upds) || r.Rejected != 0 {
		return fmt.Errorf("ingest applied %d of %d (rejected %d, waited %v): %v",
			r.Applied, len(upds), r.Rejected, r.Waited, r.Errors)
	}
	return nil
}

// getBody fetches url and returns the body of a 200 answer.
func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// getJSON fetches url and decodes a 200 answer into out.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	body, err := getBody(ctx, hc, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// sleepUntil waits until t0+due.
func sleepUntil(t0 time.Time, due time.Duration) {
	if d := time.Until(t0.Add(due)); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hooks let the traced run observe each request the generator sends.
type hooks struct {
	// write is called around every ingest request; the returned function
	// runs when the request has been answered.
	write func(n int) func(err error)
	// read is called around every read; the returned function runs when the
	// body has been read.
	read func() func(err error)
}

// openLoop runs the mixed phase: the writer and the reader each follow
// their own schedule and never wait for a slow system before a request
// falls due. The writer has one connection, so while a request is in
// flight the updates falling due queue up in the generator; its next
// request carries every update due since the previous send. Every update
// and read is timed from its due time, so a stall counts against everything
// queued behind it.
func openLoop(ctx context.Context, writeURL, readURL string, in *inputs, h hooks) (writes, reads phaseStats) {
	writes.name, reads.name = "open-writes", "open-reads"
	wc, rc := newClient(), newClient()
	defer wc.CloseIdleConnections()
	defer rc.CloseIdleConnections()
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < len(in.writes); {
			sleepUntil(t0, in.writeDue[i])
			now := time.Since(t0)
			j := i + 1
			for j < len(in.writes) && in.writeDue[j] <= now {
				j++
			}
			writes.lateMS = append(writes.lateMS, ms(now-in.writeDue[i]))
			writes.attempted += j - i
			var done func(error)
			if h.write != nil {
				done = h.write(j - i)
			}
			err := postUpdates(ctx, wc, writeURL, in.writes[i:j])
			acked := time.Since(t0)
			if done != nil {
				done(err)
			}
			if err != nil {
				writes.fail(j-i, err.Error())
			} else {
				for k := i; k < j; k++ {
					writes.latencyMS = append(writes.latencyMS, ms(acked-in.writeDue[k]))
					writes.dueMS = append(writes.dueMS, ms(in.writeDue[k]))
				}
			}
			i = j
		}
	}()
	go func() {
		defer wg.Done()
		for _, op := range in.reads {
			sleepUntil(t0, op.due)
			reads.lateMS = append(reads.lateMS, ms(time.Since(t0)-op.due))
			reads.attempted++
			var done func(error)
			if h.read != nil {
				done = h.read()
			}
			body, err := getBody(ctx, rc, readURL+op.path())
			if err == nil {
				err = checkRead(op, body)
			}
			got := time.Since(t0)
			if done != nil {
				done(err)
			}
			if err != nil {
				reads.fail(1, err.Error())
				continue
			}
			reads.latencyMS = append(reads.latencyMS, ms(got-op.due))
			reads.dueMS = append(reads.dueMS, ms(op.due))
		}
	}()
	wg.Wait()
	return writes, reads
}

// checkRead checks the shape of one read answer: the values change while
// the stream runs, so they are checked only at the end of the run.
func checkRead(op readOp, body []byte) error {
	switch op.kind {
	case readTopVertices, readTopEdges:
		var r struct {
			K        int               `json:"k"`
			Vertices []json.RawMessage `json:"vertices"`
			Edges    []json.RawMessage `json:"edges"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if got := len(r.Vertices) + len(r.Edges); got != topK || r.K != topK {
			return fmt.Errorf("%s returned %d entries, want %d", op.path(), got, topK)
		}
	default:
		var r struct {
			Score *float64 `json:"score"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Score == nil {
			return fmt.Errorf("%s returned no score", op.path())
		}
	}
	return nil
}

// drain posts the backlog as parts consecutive requests of equal size,
// each sent once the previous one is acknowledged, and returns the phase
// stats and each part's rate in updates per second. One request is one
// drain on the server, so the batch composition is fixed; several parts
// let the median rate shrug off a burst of noise from the host. after runs
// between a part's acknowledgement and the next part, with its rate.
func drain(ctx context.Context, writeURL string, backlog []update, parts int, h hooks, after func(part int, rate float64) error) (phaseStats, []float64, error) {
	st := phaseStats{name: "drain"}
	hc := newClient()
	defer hc.CloseIdleConnections()
	var rates []float64
	size := len(backlog) / parts
	for p := 0; p < parts; p++ {
		part := backlog[p*size : (p+1)*size]
		st.attempted += len(part)
		var done func(error)
		if h.write != nil {
			done = h.write(len(part))
		}
		start := time.Now()
		err := postUpdates(ctx, hc, writeURL, part)
		took := time.Since(start)
		if done != nil {
			done(err)
		}
		if err != nil {
			st.fail(len(part), err.Error())
			continue
		}
		st.latencyMS = append(st.latencyMS, ms(took))
		rates = append(rates, float64(len(part))/took.Seconds())
		if err := after(p, rates[len(rates)-1]); err != nil {
			return st, rates, err
		}
	}
	return st, rates, nil
}

// windowedMedian splits the open-loop phase into windows of equal length
// by due time and returns the median of the windows' median latencies. A
// burst of noise from the host that fills a window or two moves one or two
// window medians, not the result.
func windowedMedian(p phaseStats, span time.Duration, windows int) float64 {
	per := make([][]float64, windows)
	for i, due := range p.dueMS {
		w := min(int(due/ms(span)*float64(windows)), windows-1)
		per[w] = append(per[w], p.latencyMS[i])
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, quantile(xs, 0.5))
		}
	}
	return quantile(meds, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
