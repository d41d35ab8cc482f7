package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// servedRequest builds one connection's request from the committed drvserve
// request files: copies of each file's stream under ids of their own, the
// lines of all streams interleaved round robin after one handshake. It
// returns the request and its number of history symbols.
func servedRequest(tb testing.TB, copies int) ([]byte, int) {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "drvserve", "testdata", "*_request.ndjson"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no request testdata: %v", err)
	}
	var handshake []byte
	var streams [][][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		lines := bytes.SplitAfter(b, []byte("\n"))
		handshake = lines[0]
		slug := []byte(`"stream":"` + filepath.Base(p)[:len(filepath.Base(p))-len("_request.ndjson")] + `"`)
		for c := 0; c < copies; c++ {
			id := []byte(fmt.Sprintf(`"stream":"%s-%d"`, slug[10:len(slug)-1], c))
			var renamed [][]byte
			for _, l := range lines[1:] {
				if len(l) > 0 {
					renamed = append(renamed, bytes.Replace(l, slug, id, 1))
				}
			}
			streams = append(streams, renamed)
		}
	}
	req := append([]byte(nil), handshake...)
	events := 0
	for i := 0; ; i++ {
		more := false
		for _, s := range streams {
			if i < len(s) {
				req = append(req, s[i]...)
				if bytes.Contains(s[i], []byte(`"kind":"sym"`)) {
					events++
				}
				more = true
			}
		}
		if !more {
			return req, events
		}
	}
}

// BenchmarkServeConn serves a recorded multi-stream request — four copies
// of each committed drvserve request, interleaved — through ServeConn in
// memory on one warm server, and reports the time and the bytes allocated
// per history symbol, decode, replay and encode together.
func BenchmarkServeConn(b *testing.B) {
	req, events := servedRequest(b, 4)
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ServeConn(rw{bytes.NewReader(req), io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}
