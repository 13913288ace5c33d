package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The daemon workload runs the generator and dynsumd on one CPU, the
// last one this process may use. On a virtual machine a request that
// crosses CPUs wakes the other, idle virtual CPU through the
// hypervisor, and how long that takes depends on what the rest of the
// host is doing: with the two processes on separate CPUs, request
// latency spread several times more between runs than with both on one.
// dynsumd inherits the CPU from this process when it is started.

// pinToLastCPU restricts every thread of this process to the last
// allowed CPU, sets GOMAXPROCS to 1, and returns that CPU.
func pinToLastCPU() (int, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return 0, err
	}
	cpu := cpus[len(cpus)-1]
	if err := forEachThread(func(tid int) error { return setThreadAffinity(tid, cpu) }); err != nil {
		return 0, err
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}

// The daemon workload also keeps every allowed CPU busy with a spinner
// process at the idle scheduling class. A halted virtual CPU wakes, for
// a timer or a request, only once the hypervisor runs it again, so on a
// busy host the requests that found the CPU idle waited for the rest of
// the host. Any ordinary thread preempts a spinner at once, so on a
// dedicated machine the spinners change nothing but power use.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// startSpinners starts one spinner (this program with -spin) per allowed
// CPU and returns a function that kills them and waits for them to end.
// A spinner dies with this process, should it be killed.
func startSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	}
	for _, cpu := range cpus {
		c := exec.Command(self, "-spin", strconv.Itoa(cpu))
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		cmds = append(cmds, c)
	}
	return stop, nil
}

// spin is the spinner process: every thread on cpu at the idle
// scheduling class, busy until killed.
func spin(cpu int) error {
	runtime.GOMAXPROCS(1)
	if err := forEachThread(func(tid int) error {
		var param struct{ priority int32 }
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
			return e
		}
		return setThreadAffinity(tid, cpu)
	}); err != nil {
		return err
	}
	for {
	}
}

// forEachThread calls f with the id of every thread of this process;
// threads started later inherit the scheduling policy and CPU mask of
// the thread that starts them.
func forEachThread(f func(tid int) error) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := f(tid); err != nil {
			return err
		}
	}
	return nil
}

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, e
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// setThreadAffinity restricts thread tid to cpu. Child processes inherit
// the mask of the thread that forks them.
func setThreadAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}
