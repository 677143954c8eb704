package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Linux charges a child's ru_maxrss with the peak RSS of the process that
// started it: Go starts children sharing its address space until exec, and
// exec records that space's high-water mark. The harness grows to tens of
// MB while it computes references, so owlclass runs are started from a
// small helper process (this binary with spawnerEnv set) whose own peak
// stays below any classification's.
const spawnerEnv = "PERFBENCH_SPAWNER"

type spawnReq struct {
	Args []string // program and arguments
	Out  string   // file that receives the program's stdout
}

type spawnResp struct {
	WallNs, CPUNs, MaxRSS int64 // MaxRSS in bytes
	Err                   string
}

// runSpawner serves spawn requests, one JSON value per line, until its
// input closes.
func runSpawner(in io.Reader, out io.Writer) error {
	dec, enc := json.NewDecoder(in), json.NewEncoder(out)
	for {
		var req spawnReq
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := enc.Encode(spawnOne(req)); err != nil {
			return err
		}
	}
}

func spawnOne(req spawnReq) spawnResp {
	f, err := os.Create(req.Out)
	if err != nil {
		return spawnResp{Err: err.Error()}
	}
	defer f.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(req.Args[0], req.Args[1:]...)
	cmd.Stdout, cmd.Stderr = f, &stderr
	start := time.Now()
	err = cmd.Run()
	resp := spawnResp{WallNs: int64(time.Since(start))}
	if err != nil {
		resp.Err = fmt.Sprintf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			resp.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
			resp.MaxRSS = ru.Maxrss * 1024
		}
	}
	return resp
}

// spawner is the running helper.
type spawner struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

func startSpawner() (*spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), spawnerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spawner{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// run starts one program through the helper and waits for it.
func (s *spawner) run(req spawnReq) (spawnResp, error) {
	var resp spawnResp
	if err := s.enc.Encode(req); err != nil {
		return resp, err
	}
	err := s.dec.Decode(&resp)
	return resp, err
}

// close stops the helper and waits for it to exit.
func (s *spawner) close() error {
	s.stdin.Close()
	return s.cmd.Wait()
}
