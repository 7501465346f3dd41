// apply_bulk: the four discovered-mapping shapes of bench/bench_apply.cc
// applied through CompiledExecutor to instances of 10^5..10^6 tuples,
// with the interpreter's output as the equality reference.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness/common.h"
#include "fira/builtin_functions.h"
#include "fira/compile.h"
#include "fira/expression.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace perfbench {
namespace {

using tupelo::Database;
using tupelo::MappingExpression;
using tupelo::Op;
namespace obs = tupelo::obs;
using obs::JsonValue;

constexpr size_t kDimRows = 8;
const size_t kSizes[] = {100000, 1000000};

// R(K, P, A, B, C, D) with `rows` tuples (P holds pointer atoms, mostly
// resolvable, some null) and the dimension S(S1, S2).
Database MakeInstance(size_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const char* pointers[] = {"A", "B", "C", "D", "K", "nope"};
  tupelo::Relation r =
      tupelo::Relation::Create("R", {"K", "P", "A", "B", "C", "D"}).value();
  r.ReserveTuples(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<tupelo::Value> vs;
    vs.reserve(6);
    vs.emplace_back("k" + std::to_string(i));
    vs.push_back(rng() % 16 == 0 ? tupelo::Value()
                                 : tupelo::Value(pointers[rng() % 6]));
    vs.emplace_back("a" + std::to_string(rng() % 997));
    vs.push_back(rng() % 8 == 0
                     ? tupelo::Value()
                     : tupelo::Value("b" + std::to_string(rng() % 97)));
    vs.emplace_back("c" + std::to_string(rng() % 31));
    vs.emplace_back("d" + std::to_string(rng() % 7));
    (void)r.AddTuple(tupelo::Tuple(std::move(vs)));
  }
  tupelo::Relation s = tupelo::Relation::Create("S", {"S1", "S2"}).value();
  for (size_t i = 0; i < kDimRows; ++i) {
    (void)s.AddRow({"s" + std::to_string(i), "t" + std::to_string(i % 3)});
  }
  Database db;
  db.PutRelation(std::move(r));
  db.PutRelation(std::move(s));
  return db;
}

// Same relations, attributes and tuples in the same order: what the
// CompiledExecutor contract promises, checked in one linear pass.
// ContentsEqual (order-insensitive, but it builds the canonical text of
// the whole instance, seconds at 10^6 tuples) decides the rest.
bool SameOutput(const Database& a, const Database& b) {
  if (a.relations().size() != b.relations().size()) return false;
  auto ia = a.relations().begin();
  auto ib = b.relations().begin();
  for (; ia != a.relations().end(); ++ia, ++ib) {
    if (ia->first != ib->first ||
        ia->second->attributes() != ib->second->attributes() ||
        ia->second->tuples() != ib->second->tuples()) {
      return false;
    }
  }
  return true;
}

struct Shape {
  const char* name;
  MappingExpression expr;
  size_t rows_div;  // the product multiplies R by the dimension rows
};

// The shapes search discovers: a rename detour, renames collapsing into
// projections, pointer chasing plus a λ, and a product trimmed back down.
std::vector<Shape> Shapes() {
  using tupelo::ApplyFunctionOp;
  using tupelo::DereferenceOp;
  using tupelo::DropOp;
  using tupelo::ProductOp;
  using tupelo::RenameAttrOp;
  using tupelo::RenameRelOp;
  return {
      {"rename_chain",
       MappingExpression(std::vector<Op>{
           RenameAttrOp{"R", "A", "A1"}, RenameAttrOp{"R", "B", "B1"},
           RenameAttrOp{"R", "C", "C1"}, RenameAttrOp{"R", "D", "D1"},
           RenameAttrOp{"R", "A1", "A2"}, RenameRelOp{"R", "Out"}}),
       1},
      {"rename_drop",
       MappingExpression(std::vector<Op>{
           RenameAttrOp{"R", "A", "X"}, DropOp{"R", "X"}, DropOp{"R", "B"},
           RenameAttrOp{"R", "C", "Y"}, DropOp{"R", "D"}}),
       1},
      {"deref_lambda",
       MappingExpression(std::vector<Op>{
           DereferenceOp{"R", "P", "V"},
           ApplyFunctionOp{"R", "concat", {"K", "V"}, "W"}, DropOp{"R", "A"},
           DropOp{"R", "B"}}),
       1},
      {"product_trim",
       MappingExpression(std::vector<Op>{
           ProductOp{"R", "S"}, DropOp{"R*S", "A"}, DropOp{"R*S", "B"},
           DropOp{"R*S", "C"}, DropOp{"R*S", "D"}, DropOp{"R*S", "S2"}}),
       kDimRows},
  };
}

// One (shape, size) pair: its input instance and compiled plan.
struct Case {
  size_t shape = 0;
  size_t tuples = 0;  // nominal output size
  const Database* input = nullptr;
  std::unique_ptr<tupelo::CompiledExecutor> compiled;
};

struct Inputs {
  std::vector<Database> instances;  // per size: full R, then R / 8
  std::vector<Case> cases;
  uint64_t built_tuples = 0;
  uint64_t build_ns = 0;
};

Inputs Prepare(const std::vector<Shape>& shapes, uint64_t seed) {
  Inputs in;
  Clock::time_point t0 = Clock::now();
  for (size_t size : kSizes) {
    in.instances.push_back(MakeInstance(size, seed + size));
    in.instances.push_back(MakeInstance(size / kDimRows, seed + size + 1));
    in.built_tuples += size + size / kDimRows;
  }
  in.build_ns = NanosBetween(t0, Clock::now());
  for (size_t si = 0; si < std::size(kSizes); ++si) {
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      Case c;
      c.shape = shape;
      c.tuples = kSizes[si];
      c.input = &in.instances[2 * si + (shapes[shape].rows_div > 1 ? 1 : 0)];
      c.compiled =
          std::make_unique<tupelo::CompiledExecutor>(shapes[shape].expr);
      in.cases.push_back(std::move(c));
    }
  }
  return in;
}

}  // namespace

int RunApplyWorkload(const RunArgs& args, RawResult* out) {
  tupelo::FunctionRegistry registry;
  if (!tupelo::RegisterBuiltinFunctions(&registry).ok()) {
    std::fprintf(stderr, "builtin registration failed\n");
    return 1;
  }
  const std::vector<Shape> shapes = Shapes();

  JsonValue setup = JsonValue::Array();
  Inputs in;
  for (int i = 0; i < 3; ++i) {
    in = Inputs();  // release the previous copy before building the next
    Clock::time_point t0 = Clock::now();
    in = Prepare(shapes, args.seed);
    setup.Append(MillisSince(t0) / 1e3);
  }
  out->doc["setup_s"] = std::move(setup);

  // Correctness: the compiled output must equal the interpreter's.
  uint64_t interp_ns = 0;
  uint64_t interp_tuples = 0;
  for (const Case& c : in.cases) {
    const Shape& shape = shapes[c.shape];
    const std::string what =
        std::string(shape.name) + "/" + std::to_string(c.tuples);
    ++out->attempted;
    Clock::time_point t0 = Clock::now();
    tupelo::Result<Database> want = shape.expr.Apply(*c.input, &registry);
    interp_ns += NanosBetween(t0, Clock::now());
    interp_tuples += c.tuples;
    tupelo::Result<Database> got = c.compiled->Apply(*c.input, &registry);
    if (!want.ok() || !got.ok()) {
      out->Fail(what, "apply error: " + (want.ok() ? got : want).status().ToString());
    } else if (!SameOutput(*want, *got) && !want->ContentsEqual(*got)) {
      out->Fail(what, "compiled output differs from the interpreter's");
    }
  }

  // Measured: round-robin over every case, whole rounds only, so each
  // run weighs the shapes and sizes alike.
  JsonValue calls = JsonValue::Array();
  obs::TraceSession session(256);
  obs::TraceSession* trace = args.trace ? &session : nullptr;
  uint64_t traced_ns = 0, untraced_ns = 0;
  uint64_t traced_calls = 0, untraced_calls = 0;
  const Clock::time_point start = Clock::now();
  const double budget_ms = args.seconds * 1e3;
  for (int round = 0; round == 0 || MillisSince(start) < budget_ms; ++round) {
    for (const Case& c : in.cases) {
      // Traced runs alternate spans on and off to price the spans.
      const bool span_on = trace != nullptr && round % 2 == 1;
      Clock::time_point t0 = Clock::now();
      tupelo::Result<Database> got = tupelo::Status::Internal("not run");
      {
        obs::TraceSpan span(span_on ? trace : nullptr,
                            obs::TraceCategory::kExecutor, "bench.apply");
        got = c.compiled->Apply(*c.input, &registry);
      }
      const uint64_t ns = NanosBetween(t0, Clock::now());
      ++out->attempted;
      if (!got.ok()) {
        out->Fail(std::string(shapes[c.shape].name), got.status().ToString());
      }
      (span_on ? traced_ns : untraced_ns) += ns;
      ++(span_on ? traced_calls : untraced_calls);
      JsonValue call = JsonValue::Object();
      call["shape"] = shapes[c.shape].name;
      call["tuples"] = static_cast<uint64_t>(c.tuples);
      call["ms"] = static_cast<double>(ns) / 1e6;
      calls.Append(std::move(call));
    }
  }
  out->doc["calls"] = std::move(calls);
  out->doc["measure_s"] = MillisSince(start) / 1e3;

  if (args.trace) {
    uint64_t fused = 0, ops = 0, compile_ns = 0;
    const int reps = 200;
    for (const Shape& shape : shapes) {
      Clock::time_point t0 = Clock::now();
      for (int i = 0; i < reps; ++i) {
        tupelo::CompiledPlan plan = tupelo::CompileExpression(shape.expr);
        fused += i == 0 ? plan.fused_ops : 0;
      }
      compile_ns += NanosBetween(t0, Clock::now());
      ops += shape.expr.steps().size();
    }
    JsonValue layers = JsonValue::Object();
    layers["build_ns"] = in.build_ns;
    layers["built_tuples"] = in.built_tuples;
    layers["compile_ns"] = compile_ns;
    layers["compiles"] = static_cast<uint64_t>(reps * shapes.size());
    layers["interp_ns"] = interp_ns;
    layers["interp_tuples"] = interp_tuples;
    layers["fused_ops"] = fused;
    layers["ops"] = ops;
    layers["traced_ns"] = traced_ns;
    layers["untraced_ns"] = untraced_ns;
    layers["traced_calls"] = traced_calls;
    layers["untraced_calls"] = untraced_calls;
    out->doc["layers"] = std::move(layers);
    session.WriteChromeJson(args.work_dir + "/apply_bulk.trace.json");
  }
  return 0;
}

}  // namespace perfbench
