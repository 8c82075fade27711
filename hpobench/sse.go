package main

import (
	"bufio"
	"io"
	"strings"
)

// sseEvent is one Server-Sent Event as GET /v1/studies/{id}/events
// writes it: "id: <seq>", "event: <type>", "data: <json>", blank line.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// readSSE calls fn for every complete event on r until the stream ends
// or fn returns false. Multi-line data fields join with "\n", comment
// lines (leading ':') are skipped, and an event left unterminated at EOF
// is dropped, as the SSE specification requires.
func readSSE(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var ev sseEvent
	var data []string
	pending := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if pending {
				ev.Data = strings.Join(data, "\n")
				if !fn(ev) {
					return nil
				}
			}
			ev, data, pending = sseEvent{}, data[:0], false
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.ID, pending = value, true
		case "event":
			ev.Event, pending = value, true
		case "data":
			data, pending = append(data, value), true
		}
	}
	return sc.Err()
}
