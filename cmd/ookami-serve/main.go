// Command ookami-serve runs the multi-tenant prediction API over the
// performance model: POST /v1/predict answers kernel × toolchain ×
// machine × threads what-if queries, GET /v1/roofline and the discovery
// endpoints expose the model's query surface. Benchmark runs and their
// comparison belong to ookami-bench. See docs/SERVE.md for the API
// reference.
//
// Usage:
//
//	ookami-serve [-addr :8080] [-cache 4096] [-rate 50] [-burst 100]
//	             [-drain 10s]
//	ookami-serve smoke    # self-test: start, hit every endpoint, load burst
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ookami/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ookami-serve: ")
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "smoke" {
		if err := smoke(args[1:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(args); err != nil {
		log.Fatal(err)
	}
}

// run starts the server and blocks until SIGINT/SIGTERM, then drains.
func run(args []string) error {
	fs := flag.NewFlagSet("ookami-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 4096, "prediction cache capacity (entries; negative = unbounded)")
	rate := fs.Float64("rate", 50, "per-tenant request rate on /v1/ (req/s; negative = unlimited)")
	burst := fs.Int("burst", 100, "per-tenant burst (token bucket depth)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := serve.New(serve.Config{
		CacheCapacity: *cache,
		Rate:          *rate,
		Burst:         *burst,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", serve.Addr(l))

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (deadline %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}

// smoke is the self-test CI runs: start a server on an ephemeral port,
// hit every endpoint through real HTTP, then hammer the cached predict
// path and hold it to the documented floor — at least 10k req/s with
// every response byte-identical to the direct library call.
func smoke(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ookami-serve smoke", flag.ContinueOnError)
	workers := fs.Int("workers", 8, "load-generator goroutines")
	perWorker := fs.Int("n", 5000, "requests per goroutine")
	floor := fs.Float64("floor", 10000, "minimum sustained req/s on the cached path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return serve.Smoke(out, *workers, *perWorker, *floor)
}
