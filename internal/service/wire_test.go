package service

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"specglobe/internal/core"
	"specglobe/internal/solver"
)

// TestWireProtocol drives a daemon over the line-delimited JSON
// protocol on an in-memory connection: a malformed line and an unknown
// op each produce one typed error response while the connection keeps
// serving, a valid submit streams chunks that reassemble bit-identical
// to the direct run, two jobs sharing a key ride one S=2 ensemble (the
// second streaming as field 1) and each reassembles bit-identical to
// its own direct run, and status answers mid-session.
func TestWireProtocol(t *testing.T) {
	// The fake clock never expires a window: the lone job goes out on
	// Flush, the pair on filling MaxBatch.
	d := New(Config{MaxBatch: 2, Window: time.Second, Workers: 1, ChunkSamples: 4,
		Clock: NewFakeClock(time.Unix(1_000_000, 0))})
	defer d.Close()

	client, server := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(d, server) }()

	enc := json.NewEncoder(client)
	sc := bufio.NewScanner(client)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	readResp := func() Response {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("connection closed early: %v", sc.Err())
		}
		var r Response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		return r
	}

	// Malformed JSON: one error response, connection stays up.
	if _, err := client.Write([]byte("{this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if r := readResp(); r.Type != "error" || r.Code != CodeBadRequest {
		t.Fatalf("malformed line: got %+v, want error/%s", r, CodeBadRequest)
	}

	// Unknown op: same contract.
	if err := enc.Encode(Request{Op: "launch"}); err != nil {
		t.Fatal(err)
	}
	if r := readResp(); r.Type != "error" || r.Code != CodeBadRequest {
		t.Fatalf("unknown op: got %+v, want error/%s", r, CodeBadRequest)
	}

	// submit sends one job. net.Pipe is synchronous: the next line goes
	// out only after the server's answer to this one is read.
	submit := func(spec JobSpec) {
		t.Helper()
		if err := enc.Encode(Request{Op: "submit", Job: &spec}); err != nil {
			t.Fatal(err)
		}
	}

	// accepted reads the answer to a submit made while nothing streams.
	accepted := func() string {
		t.Helper()
		r := readResp()
		if r.Type != "accepted" || r.ID == "" || r.Key == "" {
			t.Fatalf("submit: got %+v, want accepted with id and key", r)
		}
		return r.ID
	}
	// drain reads until the n jobs of one batch are done and returns
	// their ids in submit order (the given ones, then those accepted
	// meanwhile: a batch may stream before the accepted line of the
	// job that filled it) and each job's chunks.
	drain := func(n int, ids ...string) ([]string, map[string][]core.StreamChunk) {
		t.Helper()
		chunks := map[string][]core.StreamChunk{}
		for done := 0; done < n; {
			r := readResp()
			switch r.Type {
			case "accepted":
				ids = append(ids, r.ID)
			case "chunk":
				chunks[r.ID] = append(chunks[r.ID], solver.Chunk{
					Name: r.Station, Field: r.Field, Start: r.Start,
					Dt: r.Dt, RecordEvery: r.RecordEvery,
					X: r.X, Y: r.Y, Z: r.Z, Last: r.Last,
				})
			case "done":
				if r.Status == nil || r.Status.State != StateDone || r.Status.BatchSize != n {
					t.Fatalf("done: %+v, want done in a batch of %d", r.Status, n)
				}
				done++
			default:
				t.Fatalf("unexpected response %+v", r)
			}
		}
		if len(ids) != n || len(chunks) != n {
			t.Fatalf("ids %v and chunks of %d jobs, want %d", ids, len(chunks), n)
		}
		return ids, chunks
	}

	// Unknown model through the wire: typed code travels.
	bad := baseSpec("bad", 0)
	bad.Model = "ak135"
	submit(bad)
	if r := readResp(); r.Type != "error" || r.Code != CodeUnknownModel {
		t.Fatalf("bad model: got %+v, want error/%s", r, CodeUnknownModel)
	}

	// A good job streams to completion.
	spec := baseSpec("wired", 0)
	submit(spec)
	id := accepted()
	d.Flush()
	_, chunks := drain(1, id)
	sameSeismos(t, "wired", directSeismos(t, spec, 1), assemble(t, chunks[id]))

	// Two jobs with one key fill MaxBatch: one ensemble, the second job
	// is wavefield 1, and its field index crosses the wire.
	pair := []JobSpec{baseSpec("pair0", 4), baseSpec("pair1", -3)}
	submit(pair[0])
	first := accepted()
	submit(pair[1])
	ids, chunks := drain(2, first)
	for f, pid := range ids {
		for _, ch := range chunks[pid] {
			if ch.Field != f {
				t.Fatalf("%s: chunk of field %d, want %d", pair[f].Name, ch.Field, f)
			}
		}
		sameSeismos(t, pair[f].Name, directSeismos(t, pair[f], 1), assemble(t, chunks[pid]))
	}

	// Status op on the finished job.
	if err := enc.Encode(Request{Op: "status", ID: id}); err != nil {
		t.Fatal(err)
	}
	if r := readResp(); r.Type != "status" || r.Status == nil || r.Status.State != StateDone {
		t.Fatalf("status: got %+v", r)
	}

	// Closing the client ends the serve loop (net.Pipe surfaces the
	// close as an error on the read side; a real socket yields EOF).
	client.Close()
	<-serveDone
}
