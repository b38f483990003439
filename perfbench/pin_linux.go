package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToCPU restricts every thread of the process to one CPU. Threads the
// runtime starts later inherit the mask from the thread that creates
// them, so the whole process stays on that CPU.
func pinToCPU(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] |= 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
			return fmt.Errorf("pin thread %d to cpu %d: %w", tid, cpu, errno)
		}
	}
	return nil
}
