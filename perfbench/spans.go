package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed interval of the traced run: a call into a layer, or the
// window, solve or job that encloses such calls. Start and End are ns since
// the recorder's clock base; Parent 0 is the run itself.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Request int64  `json:"request"`
}

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 200000

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	spans   []span
	next    int64
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{next: 1} }

// reserve returns the id of a span the caller adds later, so the spans it
// encloses can name it as their parent.
func (l *spanLog) reserve() int64 {
	id := l.next
	l.next++
	return id
}

// add keeps s, giving it an id unless it has a reserved one.
func (l *spanLog) add(s span) {
	if s.ID == 0 {
		s.ID = l.reserve()
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
