package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/data"
	"highorder/internal/serve"
)

// client is the one load generator of a serving run. Every request — the
// workers' and the scraper's — passes through sem, so at most cap(sem)
// requests are in flight at once over the one shared transport.
type client struct {
	hc  *http.Client
	sem chan struct{}
	clk clock.Clock
	slp clock.Sleeper

	retried atomic.Int64
	// wire sums the client-side time of classify and observe exchanges
	// (send to last response byte, codec work excluded), against which the
	// servers' own request histograms are compared.
	wire atomic.Int64
}

// maxRetries bounds retries of a refusal (429 or 503). The server answers
// both before doing any work, so a retry cannot apply an observe twice.
const maxRetries = 100

func newClient(inflight int) *client {
	transport := &http.Transport{
		MaxConnsPerHost:     inflight,
		MaxIdleConnsPerHost: inflight,
		DisableCompression:  true,
	}
	return &client{
		hc:  &http.Client{Transport: transport, Timeout: 30 * time.Second},
		sem: make(chan struct{}, inflight),
		clk: clock.Clock(nil).OrWall(),
		slp: clock.Sleeper(nil).OrReal(),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange sends one request under the in-flight cap and returns the body
// of a 2xx answer, retrying refusals.
func (c *client) exchange(method, url string, body []byte, ctype string) ([]byte, time.Duration, error) {
	var spent time.Duration
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body)) //homlint:allow tracectx -- the benchmark is the trace head and its servers run without flight recorders
		if err != nil {
			return nil, spent, err
		}
		if body != nil {
			req.Header.Set("Content-Type", ctype)
		}
		c.sem <- struct{}{}
		t0 := c.clk()
		status, out, err := c.roundTrip(req)
		spent += c.clk().Sub(t0)
		<-c.sem
		if err != nil {
			return nil, spent, fmt.Errorf("%s %s: %w", method, url, err)
		}
		if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < maxRetries {
			c.retried.Add(1)
			c.slp.Sleep(time.Millisecond)
			continue
		}
		if status/100 != 2 {
			return nil, spent, fmt.Errorf("%s %s: HTTP %d: %s", method, url, status, bytes.TrimSpace(out))
		}
		return out, spent, nil
	}
}

func (c *client) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //homlint:allow errdrop -- response body close errors are unactionable
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches a control-plane resource (healthz, info, metrics).
func (c *client) get(url string) ([]byte, error) {
	b, _, err := c.exchange(http.MethodGet, url, nil, "")
	return b, err
}

func vectors(recs []data.Record) [][]float64 {
	out := make([][]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Values
	}
	return out
}

func (c *client) create(parent *span, base, id string) error {
	sp := parent.child("client.request")
	defer sp.end()
	body, err := json.Marshal(serve.CreateSessionRequest{ID: id})
	if err != nil {
		return err
	}
	_, _, err = c.exchange(http.MethodPost, base+"/v1/sessions", body, "application/json")
	return err
}

// classify sends one classify request and returns the predictions.
func (c *client) classify(parent *span, base, id string, recs []data.Record, binary bool) ([]int, error) {
	sp := parent.child("client.request")
	defer sp.end()
	sp.setRecords(len(recs))
	enc := sp.child("client.encode")
	req := serve.ClassifyRequest{Records: vectors(recs)}
	var body []byte
	var err error
	ctype := "application/json"
	if binary {
		body, err = serve.EncodeBinaryClassifyRequest(req)
		ctype = serve.BinaryContentType
	} else {
		body, err = json.Marshal(req)
	}
	enc.end()
	if err != nil {
		return nil, err
	}
	out, spent, err := c.exchange(http.MethodPost, base+"/v1/sessions/"+id+"/classify", body, ctype)
	c.wire.Add(int64(spent))
	if err != nil {
		return nil, err
	}
	dec := sp.child("client.decode")
	defer dec.end()
	var resp serve.ClassifyResponse
	if binary {
		resp, err = serve.DecodeBinaryClassifyResponse(out)
	} else {
		err = json.Unmarshal(out, &resp)
	}
	if err == nil && len(resp.Predictions) != len(recs) {
		err = fmt.Errorf("classify %s: %d predictions for %d records", id, len(resp.Predictions), len(recs))
	}
	return resp.Predictions, err
}

// observe sends one labeled batch; a batch the server did not apply in
// full is an error.
func (c *client) observe(parent *span, base, id string, recs []data.Record, binary bool) error {
	sp := parent.child("client.request")
	defer sp.end()
	sp.setRecords(len(recs))
	enc := sp.child("client.encode")
	classes := make([]int, len(recs))
	for i, r := range recs {
		classes[i] = r.Class
	}
	req := serve.ObserveRequest{Records: vectors(recs), Classes: classes}
	var body []byte
	var err error
	ctype := "application/json"
	if binary {
		body, err = serve.EncodeBinaryObserveRequest(req)
		ctype = serve.BinaryContentType
	} else {
		body, err = json.Marshal(req)
	}
	enc.end()
	if err != nil {
		return err
	}
	out, spent, err := c.exchange(http.MethodPost, base+"/v1/sessions/"+id+"/observe", body, ctype)
	c.wire.Add(int64(spent))
	if err != nil {
		return err
	}
	dec := sp.child("client.decode")
	defer dec.end()
	var resp serve.ObserveResponse
	if binary {
		resp, err = serve.DecodeBinaryObserveResponse(out)
	} else {
		err = json.Unmarshal(out, &resp)
	}
	if err == nil && resp.Applied != len(recs) {
		err = fmt.Errorf("observe %s: %d of %d labels applied", id, resp.Applied, len(recs))
	}
	return err
}
