package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/store"
)

// trialEvent is the part of an SSE "trial" event the benchmark reads.
type trialEvent struct {
	epochs    int
	finalLoss float64
	hidden    int
}

// studyRun is one study as a client saw it through the HTTP/SSE API.
type studyRun struct {
	plan plan
	id   string
	// sent → created is the POST round trip; firstResult is the first
	// metric or trial event, terminal the event carrying the terminal
	// state.
	sent, created, firstResult, terminal time.Time
	state                                store.StudyState
	metrics                              int
	// metricAt is when each (trial, epoch) metric event arrived.
	metricAt map[[2]int]time.Time
	trials   map[int]trialEvent
	// summaryTrials and memoized come from GET /v1/studies/{id} after
	// the terminal event.
	summaryTrials, memoized int
	err                     error
}

func (r *studyRun) wall() time.Duration { return r.terminal.Sub(r.sent) }

// meanFinalLoss averages the study's trial losses in trial-id order, so
// equal results give bit-identical means.
func (r *studyRun) meanFinalLoss() float64 {
	var losses []float64
	for _, id := range sortedTrialIDs(r) {
		losses = append(losses, r.trials[id].finalLoss)
	}
	return mean(losses)
}

// client drives one daemon's HTTP/SSE API.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// waitHealthy polls GET /healthz until it answers 200.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.http.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon never became healthy: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// scrape reads the production /metrics exposition.
func (c *client) scrape(ctx context.Context) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return promSample{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return promSample{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// runStudy submits one study, follows its SSE stream to the end and
// reads its summary. Failures are recorded on the result, not returned:
// each counts as one failed operation.
func (c *client) runStudy(ctx context.Context, p plan) *studyRun {
	r := &studyRun{plan: p, metricAt: make(map[[2]int]time.Time), trials: make(map[int]trialEvent)}
	r.err = c.follow(ctx, r)
	return r
}

func (c *client) follow(ctx context.Context, r *studyRun) error {
	r.sent = time.Now()
	var created struct {
		ID string `json:"id"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/studies", r.plan.body, &created)
	r.created = time.Now()
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	r.id = created.ID

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/studies/"+r.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var decodeErr error
	err = readSSE(resp.Body, func(e sseEvent) bool {
		now := time.Now()
		var ev store.Event
		if decodeErr = json.Unmarshal([]byte(e.Data), &ev); decodeErr != nil {
			return false
		}
		switch {
		case ev.Type == "metric" && ev.Metric != nil:
			r.metrics++
			r.metricAt[[2]int{ev.Metric.TrialID, ev.Metric.Epoch}] = now
		case ev.Type == "trial" && ev.Trial != nil:
			hidden, _ := ev.Trial.Config["hidden_units"].(float64)
			r.trials[ev.Trial.ID] = trialEvent{epochs: ev.Trial.Epochs, finalLoss: ev.Trial.FinalLoss, hidden: int(hidden)}
		case ev.Type == "state" && ev.State.Terminal() && r.terminal.IsZero():
			r.state, r.terminal = ev.State, now
			return true
		default:
			return true
		}
		if r.firstResult.IsZero() {
			r.firstResult = now
		}
		return true
	})
	if decodeErr != nil {
		return fmt.Errorf("events: decoding: %w", decodeErr)
	}
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if r.terminal.IsZero() {
		return fmt.Errorf("events: stream ended without a terminal state")
	}

	var sum struct {
		Trials   int `json:"trials"`
		Memoized int `json:"memoized"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/studies/"+r.id, nil, &sum); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	r.summaryTrials, r.memoized = sum.Trials, sum.Memoized
	return nil
}

// do sends one JSON request and decodes a 2xx response into out.
func (c *client) do(ctx context.Context, method, path string, body []byte, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}
