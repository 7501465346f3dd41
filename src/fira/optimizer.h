#ifndef TUPELO_FIRA_OPTIMIZER_H_
#define TUPELO_FIRA_OPTIMIZER_H_

#include "common/result.h"
#include "fira/expression.h"

namespace tupelo {

// Peephole simplification of mapping expressions. Discovered expressions
// often carry detours (rename chains, columns created and immediately
// dropped); executing them verbatim wastes work on every future instance
// of the source schema (cf. Carreira & Galhardas, "Execution of Data
// Mappers"). Simplify applies semantics-preserving adjacent-pair rewrites
// to a fixpoint:
//
//   rename_att(R, A, B); rename_att(R, B, C)   =>  rename_att(R, A, C)
//   rename_att(R, A, B); rename_att(R, B, A)   =>  (both removed)
//   rename_rel(A, B);    rename_rel(B, C)      =>  rename_rel(A, C)
//   rename_att(R, A, B); drop(R, B)            =>  drop(R, A)
//   apply/dereference creating X; drop(R, X)   =>  (both removed)
//   consecutive drops on one relation          =>  sorted (canonical order)
//
// Only adjacent steps are rewritten, so every rule is locally checkable.
// Equivalence guarantee — ONE-SIDED: on any instance where the original
// expression executes successfully, the simplified expression executes
// successfully and produces the identical database. On instances where
// the original would *fail*, the simplified form may succeed or fail
// differently — e.g. a fused rename drops the intermediate name's
// freshness requirement, and even reordering two drops can turn a
// NotFound into a last-column FailedPrecondition. Callers that need the
// original's failure behavior must keep the original expression (search
// does: Discover simplifies only a path that already reached the target)
// or go through Optimize below.
MappingExpression Simplify(const MappingExpression& expression);

// Failure-exact optimization. Unlike Simplify, the contract here is full
// outcome equivalence: for every instance, the returned expression yields
// the identical Result<Database> — same database on success, same typed
// error on failure. No rule in the current adjacent-pair catalogue meets
// that bar (each one weakens or reorders a validation the interpreter
// performs), so Optimize performs no rewrites: it either certifies that
// the expression is already at the simplification fixpoint (returned
// unchanged, trivially equivalent) or refuses with a typed
// FailedPrecondition whose message starts with
// "optimize: not equivalence-preserving" and names the rule that would
// have fired. The differential harness locks this in: on instances where
// Simplify's output diverges from the original, Optimize refuses.
Result<MappingExpression> Optimize(const MappingExpression& expression);

}  // namespace tupelo

#endif  // TUPELO_FIRA_OPTIMIZER_H_
