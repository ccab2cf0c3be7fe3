package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/grid"
)

// Client is the worker side of the fleet RPC surface. Every call carries a
// per-attempt context deadline and retries transport failures (and 5xx) with
// seeded-jitter exponential backoff, so a coordinator hiccup costs a delay,
// not a lost worker. 4xx responses are protocol errors and are not retried.
type Client struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:7712".
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient. Chaos
	// tests inject a FaultTransport here.
	HTTP *http.Client
	// Timeout bounds each individual attempt; <= 0 means 10s.
	Timeout time.Duration
	// Retries is how many times a failed RPC is re-sent; < 0 means the
	// default 4. (0 is honored: fail on first error.)
	Retries int
	// RetryBase is the first retry delay (doubling, jittered); <= 0 means
	// 100ms.
	RetryBase time.Duration
	// Seed seeds the jitter streams, so two workers with different seeds
	// never retry in lockstep.
	Seed uint64
}

func (c *Client) retries() int {
	if c.Retries < 0 {
		return 4
	}
	return c.Retries
}

// rpcError is a transport or server-side failure after all retries; the
// worker treats it as "coordinator unreachable" and enters degraded mode.
type rpcError struct {
	path string
	err  error
}

func (e *rpcError) Error() string { return fmt.Sprintf("fleet: rpc %s: %v", e.path, e.err) }
func (e *rpcError) Unwrap() error { return e.err }

// IsRPCError reports whether err is a transport/availability failure (the
// coordinator was unreachable or erroring) as opposed to a protocol
// rejection or context cancellation.
func IsRPCError(err error) bool {
	var re *rpcError
	return errors.As(err, &re)
}

// do POSTs req as JSON to path and decodes the response into resp,
// retrying transport errors and 5xx with jittered doubling backoff. The
// caller's ctx bounds the whole call including backoff sleeps; each attempt
// additionally gets its own Timeout.
func (c *Client) do(ctx context.Context, path string, req, resp any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s request: %w", path, err)
	}
	// Jitter stream seeded per (client, path) so concurrent calls from one
	// worker to different endpoints are decorrelated too.
	bo := grid.NewBackoff(c.RetryBase, c.Seed^uint64(len(path))<<32^hashString(path))
	attempts := 1 + c.retries()
	var last error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			if err := bo.Sleep(ctx); err != nil {
				return err
			}
		}
		actx, cancel := context.WithTimeout(ctx, timeout)
		hreq, err := http.NewRequestWithContext(actx, http.MethodPost,
			strings.TrimRight(c.Base, "/")+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return fmt.Errorf("fleet: building %s request: %w", path, err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := httpc.Do(hreq)
		if err != nil {
			cancel()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(hresp.Body, 16<<20))
		hresp.Body.Close()
		cancel()
		if err != nil {
			last = err
			continue
		}
		switch {
		case hresp.StatusCode >= 500:
			last = fmt.Errorf("server error %d: %s", hresp.StatusCode, strings.TrimSpace(string(data)))
			continue
		case hresp.StatusCode != http.StatusOK:
			// Protocol rejection: retrying cannot help.
			return fmt.Errorf("fleet: rpc %s: status %d: %s", path, hresp.StatusCode, strings.TrimSpace(string(data)))
		}
		if err := json.Unmarshal(data, resp); err != nil {
			last = fmt.Errorf("decoding response: %w", err)
			continue
		}
		return nil
	}
	return &rpcError{path: path, err: last}
}

// hashString is an FNV-1a fold for seed separation (not cryptographic).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Lease asks for work: one trial, or as many as the coordinator sizes a lease
// at when req.MaxTrials says the caller can hold them (req.Capacity
// advertises the worker's thread capacity for cost-aware placement).
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do(ctx, "/v1/lease", req, &resp)
	return resp, err
}

// Renew extends held leases.
func (c *Client) Renew(ctx context.Context, req RenewRequest) (RenewResponse, error) {
	var resp RenewResponse
	err := c.do(ctx, "/v1/renew", req, &resp)
	return resp, err
}

// Complete delivers the finished trials of a lease.
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := c.do(ctx, "/v1/complete", req, &resp)
	return resp, err
}

// Status fetches coordinator state. (Uses POST like every other endpoint so
// the fault transport sees a uniform stream; the server accepts both.)
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	var resp StatusResponse
	err := c.do(ctx, "/v1/status", struct{}{}, &resp)
	return resp, err
}

// FaultTransport is an http.RoundTripper that injects seeded, deterministic
// faults into the RPC stream — the coordination layer's analogue of
// bench/faults. Probabilities are evaluated per request from a seeded
// xorshift stream, so a chaos test replays identically given the same seed
// and request sequence.
type FaultTransport struct {
	// Next is the real transport; nil means http.DefaultTransport.
	Next http.RoundTripper
	// DropP drops the request before it is sent (the classic lost-request
	// partition). DelayP delays the request by Delay before sending (slow
	// network). DupP sends the request twice, returning the second response
	// (a retransmit where both copies reach the server — the duplicate-
	// completion generator).
	DropP, DelayP, DupP float64
	// Delay is the injected latency for DelayP hits; <= 0 means 20ms.
	Delay time.Duration

	mu      sync.Mutex
	rng     uint64
	severed bool
}

// NewFaultTransport wraps next with a seeded fault injector.
func NewFaultTransport(next http.RoundTripper, seed uint64) *FaultTransport {
	return &FaultTransport{Next: next, rng: splitmix(seed)}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Sever cuts the link: every subsequent request fails until Heal. This is
// the full-partition fault (coordinator crash, network down) the worker's
// degraded mode exists for.
func (t *FaultTransport) Sever() {
	t.mu.Lock()
	t.severed = true
	t.mu.Unlock()
}

// Heal restores the link.
func (t *FaultTransport) Heal() {
	t.mu.Lock()
	t.severed = false
	t.mu.Unlock()
}

// Severed reports the current link state.
func (t *FaultTransport) Severed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.severed
}

// roll draws one uniform float in [0,1).
func (t *FaultTransport) roll() float64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return float64(x>>11) / float64(1<<53)
}

// RoundTrip applies at most one fault per request, chosen by seeded rolls in
// a fixed order (drop, dup, delay) so fault mixes compose predictably.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	next := t.Next
	if next == nil {
		next = http.DefaultTransport
	}
	t.mu.Lock()
	if t.severed {
		t.mu.Unlock()
		return nil, fmt.Errorf("fleet: transport severed (injected)")
	}
	drop := t.DropP > 0 && t.roll() < t.DropP
	dup := !drop && t.DupP > 0 && t.roll() < t.DupP
	delay := !drop && !dup && t.DelayP > 0 && t.roll() < t.DelayP
	t.mu.Unlock()

	if drop {
		return nil, fmt.Errorf("fleet: request dropped (injected)")
	}
	if delay {
		d := t.Delay
		if d <= 0 {
			d = 20 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if dup && req.GetBody != nil {
		// First copy: sent and discarded (the network delivered both; the
		// caller only ever sees one response). The server observes the
		// request twice — the duplicate-completion race dedupe must absorb.
		if body, err := req.GetBody(); err == nil {
			first := req.Clone(req.Context())
			first.Body = body
			if resp, err := next.RoundTrip(first); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		second, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = second
	}
	return next.RoundTrip(req)
}
