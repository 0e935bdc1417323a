package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// hostInfo is what a ledger row states about where a number was measured.
type hostInfo struct {
	Nproc         int    `json:"nproc"`
	GeneratorProc int    `json:"generator_gomaxprocs"`
	ServerProcs   int    `json:"server_gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Kernel        string `json:"kernel"`
	CPUModel      string `json:"cpu_model"`
	GeneratorCPUs string `json:"generator_cpus"`
	ServerCPUs    string `json:"server_cpus"`
}

// splitCPUs divides the CPUs this process may run on between the load
// generator (the first one) and the server (the rest), so each side owns
// its cores. With a single allowed CPU both share it and nothing is pinned.
func splitCPUs() (gen, srv []int) {
	allowed := allowedCPUs()
	if len(allowed) < 2 {
		return nil, nil
	}
	return allowed[:1], allowed[1:]
}

// allowedCPUs reads this thread's affinity mask.
func allowedCPUs() []int {
	var mask [16]uint64 // 1024 CPUs
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for w, bits := range mask {
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	return cpus
}

// pinSelf restricts every existing thread of this process to cpus; threads
// the runtime starts later inherit the mask from the thread that clones them.
func pinSelf(cpus []int) {
	if len(cpus) == 0 {
		return
	}
	var mask [16]uint64
	for _, c := range cpus {
		mask[c/64] |= 1 << uint(c%64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// Best effort: a thread that exited in between is not an error.
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	}
}

func cpuList(cpus []int) string {
	if len(cpus) == 0 {
		return "unpinned"
	}
	parts := make([]string, len(cpus))
	for i, c := range cpus {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

func describeHost(genCPUs, srvCPUs []int, serverProcs int) hostInfo {
	h := hostInfo{
		Nproc:         runtime.NumCPU(),
		GeneratorProc: runtime.GOMAXPROCS(0),
		ServerProcs:   serverProcs,
		GoVersion:     runtime.Version(),
		GeneratorCPUs: cpuList(genCPUs),
		ServerCPUs:    cpuList(srvCPUs),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// procCPU returns the CPU time pid has consumed, in nanoseconds: the sum
// of its threads' on-CPU time from schedstat (nanosecond resolution), or
// utime+stime from stat (10 ms ticks) where schedstat is not compiled in.
func procCPU(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	precise := true
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			precise = false
			break
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			precise = false
			break
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			precise = false
			break
		}
		total += ns
	}
	if precise && total > 0 {
		return total, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("perf: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("perf: unparsable /proc/%d/stat", pid)
	}
	return (ut + st) * 10_000_000, nil // USER_HZ is 100 on every Linux ABI Go supports
}

// procRSSKB returns pid's resident set size in KiB (VmRSS).
func procRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(v)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("perf: no VmRSS for pid %d", pid)
}

// hostTicks returns the host's cumulative steal ticks and total ticks.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// selfCPU returns this process's own CPU time in nanoseconds.
func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// findRoot walks up from the working directory to the mmprofile checkout
// this benchmark sits in.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "mmserver")); err == nil && st.IsDir() {
			if _, err := os.Stat(filepath.Join(dir, "perf", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("perf: no mmprofile checkout (cmd/mmserver + perf/go.mod) above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/mmserver from the checkout's source into
// perf/out, untimed. With an unchanged tree the go build cache makes this a
// fraction of a second.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, "perf", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(out, "mmserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mmserver")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("perf: building cmd/mmserver: %w", err)
	}
	return bin, nil
}
