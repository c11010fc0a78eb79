package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// repoRoot finds the heimdall checkout the benchmark sits in: the nearest
// directory at or above the working directory that holds cmd/heimdalld.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "heimdalld", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no cmd/heimdalld at or above the working directory; run from a heimdall checkout")
		}
		dir = parent
	}
}

// outDir is where everything the benchmark writes goes.
func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }

// buildDaemon compiles cmd/heimdalld from the checkout's source. It is
// not part of setup_s: a technician never waits for a compiler.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(outDir(root), "heimdalld")
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/heimdalld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building heimdalld: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running server process: heimdalld, or the reference.
type daemon struct {
	pid  int
	base string // http://127.0.0.1:port
	stop func() // kills the process and waits for it; idempotent
}

// live tracks running daemons so that every exit path can reap them.
var live struct {
	sync.Mutex
	all map[*daemon]struct{}
}

func stopAllDaemons() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.all))
	for d := range live.all {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon runs heimdalld with default flags plus the deterministic
// platform seed.
func startDaemon(root, bin string) (*daemon, error) {
	return startServer(root, bin, "-platform-seed", "bench")
}

// startServer runs bin with the given arguments and -addr on a free
// loopback port, and returns once its /healthz says ok. Its stderr is
// appended to out/<name of bin>.log.
//
// The process is started from a goroutine that stays locked to its OS
// thread until the process has been reaped: Pdeathsig is tied to the
// starting thread, and this way the kernel kills the server if — and only
// if — the benchmark itself dies without running its deferred stops.
func startServer(root, bin string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logName := filepath.Base(bin) + ".log"
	logf, err := os.OpenFile(filepath.Join(outDir(root), logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	started := make(chan error, 1)
	kill := make(chan struct{})
	reaped := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		<-kill
		_ = cmd.Process.Kill() // already gone is fine
		_ = cmd.Wait()         // a killed process reports its signal; nothing to act on
		logf.Close()
		close(reaped)
	}()
	if err := <-started; err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{pid: cmd.Process.Pid, base: "http://" + addr}
	var once sync.Once
	d.stop = func() {
		once.Do(func() {
			close(kill)
			<-reaped
			live.Lock()
			delete(live.all, d)
			live.Unlock()
		})
	}
	live.Lock()
	if live.all == nil {
		live.all = make(map[*daemon]struct{})
	}
	live.all[d] = struct{}{}
	live.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s on %s not healthy after 10s (see benchmark/out/%s)", bin, addr, logName)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pinEnv marks a benchmark process that has already re-executed itself on
// one CPU; its value is the CPU count it had before.
const pinEnv = "HEIMDALL_BENCH_PINNED"

// pinSelf confines the benchmark — load generator and, by inheritance, the
// daemon it starts — to the highest-numbered CPU, by re-executing itself
// with that affinity so that both Go runtimes start up knowing they have
// one CPU. A closed loop never needs two CPUs at once: the client waits
// while the daemon works. Spread over a VM's two CPUs, every request pays
// two cross-CPU wake-ups whose cost belongs to the hypervisor and swings
// by half with the neighbours' load (loopback round trip 180-330 us from
// one second to the next, against 95-100 us on one CPU); setting the
// affinity after start-up does not help, because the runtime has sized its
// scheduler by then. results.json records nproc and the GOMAXPROCS this
// leaves. pinSelf returns only if there is nothing to do or it failed.
func pinSelf() error {
	if os.Getenv(pinEnv) != "" {
		return nil
	}
	var all uint64 // the first 64 CPUs are plenty to find one to sit on
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	if all&(all-1) == 0 {
		return nil // one CPU: nothing to choose
	}
	last := uint64(1) << 63
	for all&last == 0 {
		last >>= 1
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread() // the affinity set here is the one exec keeps
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(last), uintptr(unsafe.Pointer(&last))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), pinEnv+"="+strconv.Itoa(runtime.NumCPU())))
}

// cpuTimes reads a process's user and system CPU seconds from
// /proc/<pid>/stat ("self" for the benchmark itself).
func cpuTimes(pid string) (user, sys float64, err error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// The command name may contain spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ is 100 on every Linux Go supports
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	return u / ticksPerSecond, s / ticksPerSecond, nil
}

// rssPeakMB reads VmHWM from /proc/<pid>/status.
func rssPeakMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches /metrics and sums every series of each family, so
// per-tenant and per-label series add up to one number per name.
func scrape(base string) (map[string]float64, error) {
	res, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
