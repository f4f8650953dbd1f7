package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Transport defaults. Chunk payloads are wire.ComplexBytes of the slab
// region under the wire.HeaderCRC checksum, which catches corruption in
// flight.
const (
	defaultChunkElems = 128 << 10 // 2 MiB payloads
	defaultRetries    = 4
	defaultBackoff    = 10 * time.Millisecond
)

// Doer is the HTTP client seam; tests inject fault-injecting
// implementations to drop or corrupt chunks.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// transport is a Doer with retry/backoff and shard metrics. Checksum
// rejects (HTTP 422) and 5xx responses retry like network errors; other
// 4xx are protocol failures and surface immediately.
type transport struct {
	client  Doer
	retries int
	backoff time.Duration
	metrics *obs.ShardMetrics
}

// defaultClient is tuned for the shard wire pattern: many concurrent
// 512 KiB–2 MiB bodies to a handful of peers. The stock Transport's two
// idle connections per host would tear down and re-dial under a sender
// pool plus pipelined scatter/gather.
var defaultClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
}}

func newTransport(client Doer, retries int, backoff time.Duration, m *obs.ShardMetrics) *transport {
	if client == nil {
		client = defaultClient
	}
	// retries: 0 means default; negative disables retries entirely (for
	// non-idempotent calls like /shard/run).
	if retries == 0 {
		retries = defaultRetries
	} else if retries < 0 {
		retries = 0
	}
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	if m == nil {
		m = obs.ShardDefault
	}
	return &transport{client: client, retries: retries, backoff: backoff, metrics: m}
}

// statusChecksumReject is the worker's response to a chunk whose payload
// does not match its CRC header: distinct from protocol errors so the
// sender knows a fresh copy of the same bytes is worth retrying.
const statusChecksumReject = http.StatusUnprocessableEntity

func retryable(status int) bool {
	return status >= 500 || status == statusChecksumReject
}

// do runs one request builder with retry-with-backoff. build is called per
// attempt (bodies cannot be replayed). lastStatus distinguishes checksum
// rejects from transport failures for error typing.
func (t *transport) do(ctx context.Context, op, peer string, build func() (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	lastStatus := 0
	for attempt := 0; attempt <= t.retries; attempt++ {
		if attempt > 0 {
			t.metrics.Retries.Add(1)
			t.metrics.AddPeerRetry(peer)
			d := t.backoff << uint(attempt-1)
			select {
			case <-ctx.Done():
				return nil, errf(KindDeadline, op, peer, "%v (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(d):
			}
		}
		req, err := build()
		if err != nil {
			return nil, errf(KindProtocol, op, peer, "build request: %v", err)
		}
		resp, err := t.client.Do(req.WithContext(ctx))
		if err != nil {
			if ctx.Err() != nil {
				return nil, errf(KindDeadline, op, peer, "%v", ctx.Err())
			}
			lastErr = err
			lastStatus = 0
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		if !retryable(resp.StatusCode) {
			return nil, errf(KindProtocol, op, peer, "%v", err)
		}
		lastErr = err
		lastStatus = resp.StatusCode
	}
	kind := KindNetwork
	if lastStatus == statusChecksumReject {
		kind = KindChecksum
	}
	return nil, errf(kind, op, peer, "retries exhausted after %d attempts: %v", t.retries+1, lastErr)
}

// postChunk ships payload to url with its CRC header, retrying with fresh
// copies until the receiver acknowledges it. Successful transfers feed the
// per-peer latency histogram (retries and backoff included, so the p99
// reflects what the transfer actually cost, not just the last attempt).
func (t *transport) postChunk(ctx context.Context, op, peer, url string, payload []byte) error {
	start := time.Now()
	resp, err := t.do(ctx, op, peer, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		wire.SetCRC(req.Header, payload)
		return req, nil
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	t.metrics.ObservePeerChunk(peer, int64(len(payload)), time.Since(start))
	return nil
}

// getChunk pulls exactly len(dst) payload bytes from url into dst,
// verifying the CRC header; a mismatch counts as a retryable transfer
// failure (the origin still holds the pristine bytes).
func (t *transport) getChunk(ctx context.Context, op, peer, url string, dst []byte) error {
	var lastErr error
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if attempt > t.retries {
			return errf(KindChecksum, op, peer, "retries exhausted after %d attempts: %v", t.retries+1, lastErr)
		}
		if attempt > 0 {
			t.metrics.Retries.Add(1)
			select {
			case <-ctx.Done():
				return errf(KindDeadline, op, peer, "%v (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(t.backoff << uint(attempt-1)):
			}
		}
		resp, err := t.do(ctx, op, peer, func() (*http.Request, error) {
			return http.NewRequest(http.MethodGet, url, nil)
		})
		if err != nil {
			if se, ok := AsError(err); ok && (se.Kind == KindProtocol || se.Kind == KindDeadline) {
				return err
			}
			lastErr = err
			continue
		}
		_, err = io.ReadFull(resp.Body, dst)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("short body: %v", err)
			continue
		}
		if err := wire.CheckCRC(resp.Header, dst); err != nil {
			lastErr = err
			continue
		}
		t.metrics.ObservePeerChunk(peer, int64(len(dst)), time.Since(start))
		return nil
	}
}

// postJSON posts v as JSON and discards the response body.
func (t *transport) postJSON(ctx context.Context, op, peer, url string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return errf(KindProtocol, op, peer, "encode: %v", err)
	}
	resp, err := t.do(ctx, op, peer, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// postJSONResult posts v as JSON and decodes the JSON response into out.
func (t *transport) postJSONResult(ctx context.Context, op, peer, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return errf(KindProtocol, op, peer, "encode: %v", err)
	}
	resp, err := t.do(ctx, op, peer, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return errf(KindProtocol, op, peer, "decode response: %v", err)
	}
	return nil
}

// getJSON fetches url and decodes the JSON response into out.
func (t *transport) getJSON(ctx context.Context, op, peer, url string, out any) error {
	resp, err := t.do(ctx, op, peer, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return errf(KindProtocol, op, peer, "decode response: %v", err)
	}
	return nil
}

// postForResult posts (no body) and decodes the JSON response into out.
func (t *transport) postForResult(ctx context.Context, op, peer, url string, out any) error {
	resp, err := t.do(ctx, op, peer, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, url, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return errf(KindProtocol, op, peer, "decode response: %v", err)
	}
	return nil
}
