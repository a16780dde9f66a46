package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The machine the benchmark runs on is shared: the speed it gives a
// process drifts by about ±20% over minutes with the load of its other
// tenants, which is wider than any useful regression bound. So the timed
// rounds are interleaved with runs of a reference kernel, a fixed amount
// of work written with Go's standard library only, which no change to the
// program can speed up or slow down. The kernel's nominal time over its
// measured time is the machine's speed, and every end-to-end timing is
// reported at nominal speed: durations multiplied by the run's median
// speed, rates divided by it. Each run also prints its raw figures and
// its speeds.
//
// The kernel runs in a child process, its own heap and goroutines apart
// from the program's: the program's garbage collector and background work
// cannot bend the reading. The parent waits while the child works, so the
// two never compete for the CPUs. Two kernels match the two kinds of work
// the workloads do: compute (text into n-gram counts and a weighted sum,
// as in the Toxic operators and models, allocation included) and HTTP round
// trips on the loopback interface (as in serving, whose time goes to system
// calls and goroutine wake-ups more than to computation).

// kernels holds each kernel's body and its nominal time in seconds on the
// reference machine.
var kernels = map[string]struct {
	nominal float64
	start   func() (run func() error, stop func(), err error)
}{
	"compute": {0.015, func() (func() error, func(), error) { return computeKernel, func() {}, nil }},
	"http":    {0.0055, startLoopback},
}

// refComments are the compute kernel's input: fixed pseudo-random text.
var refComments = func() []string {
	words := make([]string, 512)
	for i := range words {
		words[i] = "Tok" + strconv.Itoa(i*7919%100003)
	}
	out := make([]string, 64)
	x := uint32(12345)
	for i := range out {
		var b strings.Builder
		for j := 0; j < 40; j++ {
			x = x*1664525 + 1013904223
			b.WriteString(words[x>>23])
			b.WriteByte(' ')
		}
		out[i] = b.String()
	}
	return out
}()

var refSink float64

func computeKernel() error {
	weights := make(map[string]float64)
	var acc float64
	for rep := 0; rep < 4; rep++ {
		for _, c := range refComments {
			lower := strings.ToLower(c)
			counts := make(map[string]int)
			words := strings.Fields(lower)
			for i := range words {
				counts[words[i]]++
				if i > 0 {
					counts[words[i-1]+" "+words[i]]++
				}
			}
			for i := 0; i+3 <= len(lower); i++ {
				counts[lower[i:i+3]]++
			}
			var dot, norm float64
			for k, n := range counts {
				w, ok := weights[k]
				if !ok {
					w = float64(len(k)%7) - 3
					weights[k] = w
				}
				tf := math.Log1p(float64(n))
				dot += tf * w
				norm += tf * tf
			}
			acc += dot / math.Sqrt(norm+1)
		}
	}
	refSink += acc // keeps the work from being optimized away
	return nil
}

// loopbackTrips is how many sequential round trips one run of the HTTP
// kernel makes.
const loopbackTrips = 128

// startLoopback starts a net/http echo server on the loopback interface
// and returns a kernel that makes loopbackTrips round trips to it from a
// keep-alive client.
func startLoopback() (func() error, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck // the client checks the echo
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	url := "http://" + ln.Addr().String() + "/echo"
	cli := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	// About the size of a one-row Music request.
	body := []byte(`{"inputs":{"user":{"kind":"ints","ints":[12345]},"song":{"kind":"ints","ints":[678]}}}`)
	run := func() error {
		for i := 0; i < loopbackTrips; i++ {
			resp, err := cli.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if !bytes.Equal(b, body) {
				return errors.New("loopback echo differs from the request")
			}
		}
		return nil
	}
	stop := func() {
		srv.Close()
		cli.CloseIdleConnections()
		<-done
	}
	return run, stop, nil
}

// serveKernel is the child process's side (perfbench --kernel NAME): for
// each line read from stdin it runs the kernel once and writes the seconds
// it took; it returns when stdin closes.
func serveKernel(name string) error {
	k, ok := kernels[name]
	if !ok {
		return fmt.Errorf("unknown kernel %q", name)
	}
	run, stop, err := k.start()
	if err != nil {
		return err
	}
	defer stop()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		t0 := time.Now()
		if err := run(); err != nil {
			return err
		}
		if _, err := fmt.Println(time.Since(t0).Seconds()); err != nil {
			return err
		}
	}
	return in.Err()
}

// kernelProc is the parent's handle on a kernel child process.
type kernelProc struct {
	name    string
	nominal float64
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
}

func startKernel(name string) (*kernelProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--kernel", name)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	k := &kernelProc{name: name, nominal: kernels[name].nominal, cmd: cmd, in: in, out: bufio.NewScanner(out)}
	// One unreported run warms the child up.
	if _, err := k.seconds(); err != nil {
		k.stop()
		return nil, err
	}
	return k, nil
}

func (k *kernelProc) seconds() (float64, error) {
	if _, err := io.WriteString(k.in, "run\n"); err != nil {
		return 0, err
	}
	if !k.out.Scan() {
		if err := k.out.Err(); err != nil {
			return 0, err
		}
		return 0, io.ErrUnexpectedEOF
	}
	return strconv.ParseFloat(k.out.Text(), 64)
}

// speed is the machine's speed in one run of the kernel: 1 at the nominal
// time, below 1 on a slower machine.
func (k *kernelProc) speed() (float64, error) {
	s, err := k.seconds()
	if err != nil {
		return 0, fmt.Errorf("%s reference kernel: %w", k.name, err)
	}
	return k.nominal / s, nil
}

// stop closes the child's stdin and waits for it to end.
func (k *kernelProc) stop() {
	k.in.Close()
	k.cmd.Wait() //nolint:errcheck // a kernel error was already reported by speed
}
