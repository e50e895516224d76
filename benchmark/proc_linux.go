package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// userHz is the kernel's USER_HZ, the unit of the utime and stime
// fields of /proc/<pid>/stat; it is 100 on every Linux ABI.
const userHz = 100

// processCPUSeconds reads the CPU time a process's threads have used
// from /proc/<pid>/task/*/schedstat, which counts nanoseconds: the
// 10 ms ticks of /proc/<pid>/stat are 2% of what an idle-most-of-the-time
// server uses in a five-second trial. Threads that have exited are not
// in the sum; the Go runtime keeps its threads. A kernel without
// scheduler statistics falls back to the ticks.
func processCPUSeconds(pid int) float64 {
	dir := "/proc/" + strconv.Itoa(pid)
	ents, _ := os.ReadDir(dir + "/task")
	ns := 0.0
	for _, e := range ents {
		data, err := os.ReadFile(dir + "/task/" + e.Name() + "/schedstat")
		if f := bytes.Fields(data); err == nil && len(f) > 0 {
			v, _ := strconv.ParseFloat(string(f[0]), 64)
			ns += v
		}
	}
	if ns > 0 {
		return ns * 1e-9
	}
	data, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numbered fields resume after the last ')'.
	fields := bytes.Fields(data[bytes.LastIndexByte(data, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(string(fields[11]), 64) // field 14
	stime, _ := strconv.ParseFloat(string(fields[12]), 64) // field 15
	return (utime + stime) / userHz
}

// stolenSeconds is the time the hypervisor has, so far, run something
// else on this machine's virtual CPUs while they had work to do (the
// steal column of /proc/stat, summed over the CPUs); 0 where the kernel
// does not report it.
func stolenSeconds() float64 {
	data, _ := os.ReadFile("/proc/stat")
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(string(f[8]), 64)
	return ticks / userHz
}

// childSysProcAttr makes the kernel kill the child if the harness dies
// without running its deferred stop (a SIGKILL from a timeout).
func childSysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// selfCPUSeconds is the user+system CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only feeds the busy share of setup_s, which then reads low
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)*1e-6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var cpus []int
	for cpu := 0; errno == 0 && cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) == 0 {
		for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// pinThread binds the calling thread to one CPU.
func pinThread(cpu int) {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	// Best effort: an unpinned calibrator thread still samples the
	// machine, just not one CPU of it.
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}
