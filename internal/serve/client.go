package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"highorder/internal/clock"
	"highorder/internal/obs"
	"highorder/internal/rng"
)

// HTTPError is a non-2xx answer from the server, carrying the status code
// and the Retry-After hint when the server applied backpressure. Callers
// (cmd/homload, tests) use it to distinguish retryable 429s from hard
// failures.
type HTTPError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backoff hint (zero when absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Message)
}

// Retryable reports whether the request was refused by transient
// backpressure — 429 (wait line full) or 503 (shed, deadline lapsed,
// draining) — and safe to retry after RetryAfter. Both statuses are only
// ever answered before predictor work executes, so retrying cannot
// double-apply an observe.
func (e *HTTPError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryExhaustedError reports that every attempt of a retried request
// failed; Last is the final attempt's error.
type RetryExhaustedError struct {
	// Attempts is the total number of attempts made (initial + retries).
	Attempts int
	// Last is the error from the final attempt.
	Last error
}

// Error implements error.
func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("serve: %d attempts exhausted: %v", e.Attempts, e.Last)
}

// Unwrap exposes the final attempt's error to errors.As/Is.
func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// RetryPolicy is the client's bounded retry/backoff configuration.
// Backoff doubles per attempt from BaseBackoff, is capped (together with
// the server's Retry-After hint) at MaxBackoff, and optionally carries
// deterministic jitter from an injected rng.Source. Sleeping goes through
// an injectable clock.Sleeper so tests and chaos runs complete instantly.
// A policy with a non-nil Rng is not safe for concurrent use — give each
// goroutine its own Client.
type RetryPolicy struct {
	// MaxRetries bounds retries after the first attempt; <= 0 selects 8.
	MaxRetries int
	// BaseBackoff is the first retry's backoff; <= 0 selects 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the wait of every attempt — the doubled backoff, the
	// server's Retry-After hint, and the jitter on top are all clamped to
	// it per attempt, so no single hop in a retry chain ever waits longer
	// than MaxBackoff. <= 0 selects 2s.
	MaxBackoff time.Duration
	// MaxElapsed bounds the total backoff the whole retry chain may
	// accumulate: once the sum of waits would exceed it, the client stops
	// with *RetryExhaustedError instead of sleeping. In a layered
	// deployment (client -> gateway -> replica) each hop retries
	// independently, so per-attempt caps alone still compound
	// multiplicatively; the elapsed budget is the hop-level bound that
	// keeps chains finite. The budget is accounted from the waits the
	// policy itself imposes (deterministic under an injected Sleeper), not
	// from wall-clock reads. 0 disables the budget (MaxRetries still
	// bounds the chain).
	MaxElapsed time.Duration
	// Jitter adds a uniform fraction in [0, Jitter) of the backoff on top
	// of it, drawn from Rng; <= 0 (or Rng nil) disables jitter.
	Jitter float64
	// RetryTransport also retries transport-level errors (connection
	// dropped before any HTTP status). This is safe against this server
	// because its request-drop fault fires before handler processing, but
	// enable it only when requests are idempotent or drops are known to
	// precede side effects.
	RetryTransport bool
	// Sleep performs the backoff wait; nil selects the real time.Sleep.
	Sleep clock.Sleeper
	// Rng supplies jitter randomness; nil disables jitter.
	Rng *rng.Source
}

// Codec selects the wire encoding the client uses on the classify and
// observe endpoints. Everything else (session lifecycle, admin, metrics)
// is always JSON.
type Codec int

const (
	// CodecJSON is the default JSON wire format.
	CodecJSON Codec = iota
	// CodecBinary is the length-prefixed binary codec
	// (Content-Type: application/x-hom-records): raw little-endian
	// float64 bits instead of number text, carrying the identical
	// logical payload. Works against serve.Server directly and through
	// the gateway, which proxies bodies opaquely.
	CodecBinary
)

// Client is a thin client for the homserve HTTP API, shared by
// cmd/homload and the end-to-end tests.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy
	rec   *obs.Recorder
	codec Codec
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). httpClient nil selects http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient}
}

// WithRetry returns the client with p installed: every request retries
// retryable failures under p's bounds, returning *RetryExhaustedError
// when the budget runs out.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = &p
	return c
}

// WithCodec selects the classify/observe wire codec (default CodecJSON).
func (c *Client) WithCodec(codec Codec) *Client {
	c.codec = codec
	return c
}

// WithRecorder attaches a flight recorder: the client becomes a trace
// head, deciding sampling once per logical request and injecting the same
// X-Hom-Trace context into every retry attempt of it.
func (c *Client) WithRecorder(rec *obs.Recorder) *Client {
	c.rec = rec
	return c
}

// flightClientReq names one client attempt in flight dumps.
var flightClientReq = obs.InternName("client.request")

// do runs one JSON round trip, retrying under the installed policy. The
// body is marshaled once and every attempt re-sends it from the buffer
// under one trace context, so a retried request is byte-identical to the
// first attempt and all attempts share one trace id.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
	}
	return c.doBytes(method, path, body, "application/json", out)
}

// doBytes runs one round trip with a pre-encoded body, retrying under
// the installed policy. The response decode dispatches on the response
// Content-Type, so a JSON error body on a binary request still decodes.
func (c *Client) doBytes(method, path string, body []byte, contentType string, out any) error {
	tc := c.rec.StartTrace()
	if c.retry == nil {
		return c.doOnce(method, path, body, contentType, out, tc)
	}
	p := c.retry
	maxRetries := p.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 8
	}
	backoff := p.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := p.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	var elapsed time.Duration
	for attempt := 0; ; attempt++ {
		err := c.doOnce(method, path, body, contentType, out, tc)
		if err == nil {
			return nil
		}
		wait := backoff
		retryable := false
		if he := (*HTTPError)(nil); errors.As(err, &he) {
			retryable = he.Retryable()
			if he.RetryAfter > wait {
				wait = he.RetryAfter
			}
		} else if p.RetryTransport {
			retryable = true
		}
		if !retryable {
			return err
		}
		if attempt >= maxRetries {
			return &RetryExhaustedError{Attempts: attempt + 1, Last: err}
		}
		if p.Jitter > 0 && p.Rng != nil {
			wait += time.Duration(p.Rng.Float64() * p.Jitter * float64(wait))
		}
		// The cap applies per attempt and after jitter: every hop of the
		// chain waits at most MaxBackoff, whatever the server hinted.
		if wait > maxBackoff {
			wait = maxBackoff
		}
		if p.MaxElapsed > 0 && elapsed+wait > p.MaxElapsed {
			return &RetryExhaustedError{Attempts: attempt + 1, Last: err}
		}
		p.Sleep.Sleep(wait)
		elapsed += wait
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// doOnce runs one round trip. body nil sends no body; out nil discards
// the response body.
func (c *Client) doOnce(method, path string, body []byte, contentType string, out any, tc obs.TraceContext) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if tc.Sampled {
		req.Header.Set(obs.TraceHeader, tc.HeaderValue())
	}
	sp := c.rec.Start(tc, flightClientReq)
	resp, err := c.hc.Do(req)
	sp.End()
	if err != nil {
		return err
	}
	defer resp.Body.Close() //homlint:allow errdrop -- response body close errors are unactionable
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		he := &HTTPError{Status: resp.StatusCode}
		var eresp ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&eresp); err == nil {
			he.Message = eresp.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return he
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if ct := resp.Header.Get("Content-Type"); ct == BinaryContentType || strings.HasPrefix(ct, BinaryContentType+";") {
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		switch v := out.(type) {
		case *ClassifyResponse:
			*v, err = DecodeBinaryClassifyResponse(frame)
		case *ObserveResponse:
			*v, err = DecodeBinaryObserveResponse(frame)
		default:
			err = fmt.Errorf("serve: unexpected binary response for %T", out)
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateSession opens a session.
func (c *Client) CreateSession(req CreateSessionRequest) (CreateSessionResponse, error) {
	var resp CreateSessionResponse
	err := c.do(http.MethodPost, "/v1/sessions", req, &resp)
	return resp, err
}

// CloseSession closes a session.
func (c *Client) CloseSession(id string) error {
	return c.do(http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Classify classifies a batch of attribute vectors, using the client's
// configured codec.
func (c *Client) Classify(id string, records [][]float64, proba bool) (ClassifyResponse, error) {
	var resp ClassifyResponse
	req := ClassifyRequest{Records: records, Proba: proba}
	if c.codec == CodecBinary {
		frame, err := EncodeBinaryClassifyRequest(req)
		if err != nil {
			return resp, err
		}
		err = c.doBytes(http.MethodPost, "/v1/sessions/"+id+"/classify", frame, BinaryContentType, &resp)
		return resp, err
	}
	err := c.do(http.MethodPost, "/v1/sessions/"+id+"/classify", req, &resp)
	return resp, err
}

// Observe feeds labeled records into the session's cue stream, using the
// client's configured codec.
func (c *Client) Observe(id string, records [][]float64, classes []int) (ObserveResponse, error) {
	var resp ObserveResponse
	req := ObserveRequest{Records: records, Classes: classes}
	if c.codec == CodecBinary {
		frame, err := EncodeBinaryObserveRequest(req)
		if err != nil {
			return resp, err
		}
		err = c.doBytes(http.MethodPost, "/v1/sessions/"+id+"/observe", frame, BinaryContentType, &resp)
		return resp, err
	}
	err := c.do(http.MethodPost, "/v1/sessions/"+id+"/observe", req, &resp)
	return resp, err
}

// Info fetches a session's introspection view.
func (c *Client) Info(id string) (SessionInfo, error) {
	var resp SessionInfo
	err := c.do(http.MethodGet, "/v1/sessions/"+id, nil, &resp)
	return resp, err
}

// ListSessions fetches every live session's introspection view.
func (c *Client) ListSessions() (ListSessionsResponse, error) {
	var resp ListSessionsResponse
	err := c.do(http.MethodGet, "/v1/sessions", nil, &resp)
	return resp, err
}

// Healthz fetches the server's liveness view.
func (c *Client) Healthz() (HealthResponse, error) {
	var resp HealthResponse
	err := c.do(http.MethodGet, "/healthz", nil, &resp)
	return resp, err
}

// Snapshot pulls a session's transferable snapshot; with remove the
// source atomically forgets the session once captured (the migration
// hand-off — see Server.handleAdminSnapshot for the ownership contract).
func (c *Client) Snapshot(id string, remove bool) (SessionSnapshot, error) {
	var resp SessionSnapshot
	path := "/admin/snapshot/" + id
	if remove {
		path += "?remove=true"
	}
	err := c.do(http.MethodGet, path, nil, &resp)
	return resp, err
}

// RestoreSnapshot recreates a session from a snapshot on this server (the
// receiving half of a migration).
func (c *Client) RestoreSnapshot(snap SessionSnapshot) error {
	return c.do(http.MethodPost, "/admin/restore", snap, nil)
}

// SetDraining toggles the server's drain mode.
func (c *Client) SetDraining(v bool) (DrainResponse, error) {
	var resp DrainResponse
	err := c.do(http.MethodPost, "/admin/drain", DrainRequest{Draining: v}, &resp)
	return resp, err
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics() (string, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //homlint:allow errdrop -- response body close errors are unactionable
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &HTTPError{Status: resp.StatusCode, Message: string(b)}
	}
	return string(b), nil
}

// MetricValue extracts a single un-labeled gauge/counter value from
// Prometheus exposition text.
func MetricValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// HistogramQuantiles re-assembles the named histogram from exposition text,
// keeping only series whose labels include every filter entry, and
// estimates the requested quantiles by bucket interpolation
// (obs.BucketQuantile). Reports false when no matching buckets exist or
// the histogram is empty.
func HistogramQuantiles(text, name string, filter map[string]string, qs ...float64) ([]float64, bool) {
	type bucket struct {
		bound float64
		cum   int64
	}
	var finite []bucket
	var total int64
	seenInf := false
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+"_bucket{")
		if !ok {
			continue
		}
		end := strings.Index(rest, "} ")
		if end < 0 {
			continue
		}
		labels := parseLabels(rest[:end])
		match := true
		for k, v := range filter {
			if labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		cum, err := strconv.ParseInt(strings.TrimSpace(rest[end+2:]), 10, 64)
		if err != nil {
			continue
		}
		if labels["le"] == "+Inf" {
			total = cum
			seenInf = true
			continue
		}
		bound, err := strconv.ParseFloat(labels["le"], 64)
		if err != nil {
			continue
		}
		finite = append(finite, bucket{bound: bound, cum: cum})
	}
	if !seenInf || total == 0 {
		return nil, false
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i].bound < finite[j].bound })
	bounds := make([]float64, len(finite))
	counts := make([]int64, len(finite))
	prev := int64(0)
	for i, b := range finite {
		bounds[i] = b.bound
		counts[i] = b.cum - prev
		prev = b.cum
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = obs.BucketQuantile(bounds, counts, total-prev, total, q)
	}
	return out, true
}

// parseLabels splits `k1="v1",k2="v2"` into a map. Label values in this
// exposition never contain quotes or commas, so a simple split suffices.
func parseLabels(s string) map[string]string {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		out[k] = strings.Trim(v, "\"")
	}
	return out
}
