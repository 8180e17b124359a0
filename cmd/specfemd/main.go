// Command specfemd is the simulation daemon: it owns a keyed session
// cache of built meshes, accepts scenario jobs over a line-delimited
// JSON protocol (unix socket or stdio), groups compatible jobs into
// multi-source ensemble batches, and streams seismogram chunks back as
// the integrator advances. See DESIGN.md "Simulation as a service".
//
// Serve on a socket (specfem ctl is the matching client):
//
//	specfemd -socket /tmp/specfemd.sock -max-batch 4 -window 50ms
//
// Serve one connection on stdin/stdout:
//
//	specfemd -stdio
package main

import (
	"flag"
	"io"
	"log"
	"net"
	"os"
	"time"

	"specglobe/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specfemd: ")

	var (
		socket   = flag.String("socket", "", "unix socket path to listen on")
		stdio    = flag.Bool("stdio", false, "serve a single session on stdin/stdout")
		maxBatch = flag.Int("max-batch", 4, "max ensemble size S per batch")
		window   = flag.Duration("window", 50*time.Millisecond, "max wait before dispatching a partial batch")
		budgetMB = flag.Int64("mem-budget-mb", 0, "session cache budget in MiB of mesh (0 = unlimited)")
		workers  = flag.Int("workers", 0, "solver sweeps computing at once (0 = GOMAXPROCS)")
		chunk    = flag.Int("chunk", 32, "streamed samples per chunk")
	)
	flag.Parse()

	cfg := service.Config{
		MaxBatch:     *maxBatch,
		Window:       *window,
		MemoryBudget: *budgetMB << 20,
		Workers:      *workers,
		ChunkSamples: *chunk,
	}

	d := service.New(cfg)
	defer d.Close()
	switch {
	case *stdio:
		if err := service.Serve(d, stdioConn{}); err != nil {
			log.Fatal(err)
		}
	case *socket != "":
		_ = os.Remove(*socket)
		l, err := net.Listen("unix", *socket)
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		log.Printf("listening on %s (max-batch %d, window %v)", *socket, *maxBatch, *window)
		if err := service.ListenAndServe(d, l); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -socket or -stdio")
	}
}

// stdioConn adapts stdin/stdout to the io.ReadWriter Serve wants.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

var _ io.ReadWriter = stdioConn{}
