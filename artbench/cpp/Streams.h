//===- artbench/cpp/Streams.h - Seeded request streams ---------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The requests the serve workloads send. Each client connection draws
/// from its own stream, a pure function of (workload, seed, connection):
/// the server only ever sees the generated lines. A request line is
/// `{"id":<id>,` + body + newline, so the body is built once and the
/// per-request id is spliced in front.
///
//===----------------------------------------------------------------------===//

#ifndef ARTBENCH_STREAMS_H
#define ARTBENCH_STREAMS_H

#include "support/Random.h"

#include <cstdint>
#include <string>
#include <vector>

namespace artbench {

/// Phases of the served artifacts (the opprox-train default).
constexpr size_t ServePhases = 4;

/// The warm key set: every app at every budget in
/// {1, 2, 5, 10, 15, 20, 25, 50}, at the artifact's DefaultInput (the
/// request carries no input member).
const std::vector<std::string> &warmKeyBodies();

/// `{"id":<Id>,` + Body + "\n".
std::string requestLine(uint64_t Id, const std::string &Body);

/// Key indices into warmKeyBodies(), drawn uniformly.
class WarmStream {
public:
  WarmStream(uint64_t Seed, uint64_t Conn);
  size_t next();

private:
  opprox::Rng Gen;
};

struct ColdRequest {
  std::string Body;
  /// The request minus its feedback: what the full-solve cache key is
  /// built from. Distinct across the workload.
  std::string KeyText;
  size_t App = 0;          ///< Index into allAppNames().
  size_t FeedbackLen = 0;  ///< 0 for a plain request.
};

/// Uniformly mixed apps; inputs drawn from each app's trainingInputs()
/// plus its defaultInput(); budgets uniform in [1, 30]; one request in
/// five carries feedback for its first k phases, k uniform in
/// [1, ServePhases - 1], each value a seeded share of the budget.
class ColdStream {
public:
  ColdStream(uint64_t Seed, uint64_t Conn);
  ColdRequest next();

private:
  opprox::Rng Gen;
};

/// Connection index of the stream the traced run's layer probes use:
/// the same generator, never sent to the server.
constexpr uint64_t ProbeConn = 1000;

} // namespace artbench

#endif // ARTBENCH_STREAMS_H
