package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockDiscipline enforces PR 9's serving-tier locking rules: mutexes
// (Session.mu, the admission controller's mutex, every other sync.Mutex /
// sync.RWMutex) are held for short critical sections only. Three rules:
//
//  1. No blocking operation while a mutex is held: channel sends and
//     receives, select without default, range over a channel, and the
//     runtime's blocking calls (StreamExchange, Parallel, Admit,
//     sync.WaitGroup.Wait, time.Sleep). A blocked
//     holder stalls every Exec on the session — the exact shape of the
//     retry-after-under-mu bug the -race job caught in PR 9.
//     (close() and select with a default arm are non-blocking and allowed.)
//  2. No return while a mutex is still locked without a deferred unlock:
//     an early-return path that skips Unlock wedges the session forever.
//  3. No mutex copies: a sync.Mutex passed by value forks the lock state.
//
// The analysis is per-function and branch-sensitive (see pathwalk.go);
// arms that disagree about the lock state mute further findings for that
// mutex rather than guessing.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no blocking operations or early returns while a tracked mutex is held; no mutex copies",
	Run:  runLockDiscipline,
}

// blockingMethodNames are the project's blocking phase/admission calls: a
// call to any of these while holding a mutex serializes the cluster (or
// deadlocks outright, for Admit → Exec → Admit chains).
var blockingMethodNames = map[string]bool{
	"StreamExchange": true,
	"Parallel":       true,
	"Admit":          true,
}

func runLockDiscipline(pass *Pass) error {
	for _, file := range pass.Files {
		checkMutexCopies(pass, file)
		funcScopeWalk(file, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			checkLockPaths(pass, body)
		})
	}
	return nil
}

// mutexCallKey returns the receiver key of a Lock/Unlock-family call on a
// mutex-typed receiver, or "" if call is not one.
func mutexCallKey(pass *Pass, call *ast.CallExpr, names ...string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
			break
		}
	}
	if !match {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return ""
	}
	return recvString(sel.X)
}

// scanCalls walks an expression, skipping function literals, invoking fn
// on every call expression.
func scanCalls(e ast.Expr, fn func(*ast.CallExpr)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

func checkLockPaths(pass *Pass, body *ast.BlockStmt) {
	hooks := &pathHooks{
		classify: func(s ast.Stmt) (acq, rel []keyAt) {
			for _, e := range exprsOf(s) {
				scanCalls(e, func(call *ast.CallExpr) {
					if k := mutexCallKey(pass, call, "Lock", "RLock"); k != "" {
						acq = append(acq, keyAt{k, call.Pos()})
					}
					if k := mutexCallKey(pass, call, "Unlock", "RUnlock"); k != "" {
						rel = append(rel, keyAt{k, call.Pos()})
					}
				})
			}
			return acq, rel
		},
		deferredRelease: func(d *ast.DeferStmt) []keyAt {
			var keys []keyAt
			if k := mutexCallKey(pass, d.Call, "Unlock", "RUnlock"); k != "" {
				keys = append(keys, keyAt{k, d.Pos()})
			}
			// defer func() { ...; mu.Unlock() }() — the teardown-closure
			// form Session.Close and Exec use.
			if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if k := mutexCallKey(pass, call, "Unlock", "RUnlock"); k != "" {
							keys = append(keys, keyAt{k, d.Pos()})
						}
					}
					return true
				})
			}
			return keys
		},
		atStmt: func(s ast.Stmt, st *pathState) {
			held := st.anyHeld()
			if len(held) == 0 {
				return
			}
			lock := held[0]
			if send, ok := s.(*ast.SendStmt); ok {
				pass.Reportf(send.Arrow, "channel send while %s is held blocks every waiter on the mutex; move it outside the critical section", lock)
			}
			if rng, ok := s.(*ast.RangeStmt); ok {
				if tv, ok := pass.TypesInfo.Types[rng.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(rng.Pos(), "range over a channel while %s is held blocks for the channel's lifetime", lock)
					}
				}
			}
			for _, e := range exprsOf(s) {
				ast.Inspect(e, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					switch x := n.(type) {
					case *ast.UnaryExpr:
						if x.Op.String() == "<-" {
							pass.Reportf(x.Pos(), "channel receive while %s is held can block indefinitely; receive before locking", lock)
						}
					case *ast.CallExpr:
						reportBlockingCall(pass, x, lock)
					}
					return true
				})
			}
		},
		atSelect: func(sel *ast.SelectStmt, st *pathState) {
			held := st.anyHeld()
			if len(held) == 0 {
				return
			}
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					return // default arm: non-blocking poll, allowed
				}
			}
			pass.Reportf(sel.Pos(), "select without default while %s is held blocks the critical section on channel readiness", held[0])
		},
		atReturn: func(ret *ast.ReturnStmt, leaked []string, st *pathState) {
			for _, k := range leaked {
				pass.Reportf(ret.Pos(), "return with %s still locked: this path skips Unlock and wedges every later locker", k)
			}
		},
	}
	walkPaths(body, hooks)
}

// reportBlockingCall flags calls that can block while a mutex is held.
func reportBlockingCall(pass *Pass, call *ast.CallExpr, lock string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	obj := calleeObj(pass.TypesInfo, call)
	switch {
	case blockingMethodNames[name]:
		pass.Reportf(call.Pos(), "call to %s while %s is held: phase barriers and admission waits must not run under a mutex", name, lock)
	case name == "Sleep" && isPkgFunc(obj, "time", "Sleep"):
		pass.Reportf(call.Pos(), "time.Sleep while %s is held stalls every waiter; sleep outside the critical section", lock)
	case name == "Wait":
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isNamed(tv.Type, "sync", "WaitGroup") {
			pass.Reportf(call.Pos(), "WaitGroup.Wait while %s is held: workers that need the mutex to finish will deadlock", lock)
		}
	}
}

// checkMutexCopies flags sync.Mutex / sync.RWMutex values passed or
// assigned by value (rule 3). Composite-literal zero values and pointer
// uses are fine; copying a live mutex forks its state.
func checkMutexCopies(pass *Pass, file *ast.File) {
	flag := func(e ast.Expr, what string) {
		tv, ok := pass.TypesInfo.Types[e]
		if !ok {
			return
		}
		// Value of bare mutex type (not pointer) that is not a fresh
		// composite literal.
		if _, isPtr := tv.Type.(*types.Pointer); isPtr {
			return
		}
		if !isMutexType(tv.Type) {
			return
		}
		if _, isLit := ast.Unparen(e).(*ast.CompositeLit); isLit {
			return
		}
		if _, isCall := ast.Unparen(e).(*ast.CallExpr); isCall {
			return
		}
		pass.Reportf(e.Pos(), "%s copies a sync mutex by value; the copy has its own lock state — pass a pointer", what)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			for _, arg := range x.Args {
				flag(arg, fmt.Sprintf("argument to %s", types.ExprString(x.Fun)))
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				// `_ = mu` discards are idiomatic (silencing unused vars),
				// not live copies.
				if i < len(x.Lhs) {
					if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				flag(rhs, "assignment")
			}
		}
		return true
	})
}
