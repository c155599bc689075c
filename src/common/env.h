#ifndef JARVIS_COMMON_ENV_H_
#define JARVIS_COMMON_ENV_H_

#include <cstddef>
#include <optional>
#include <string>

#include "common/status.h"

namespace jarvis::env {

// ---------------------------------------------------------------------------
// Centralized JARVIS_* knob parsing
// ---------------------------------------------------------------------------
// Every environment knob the runtime reads goes through this helper so a
// malformed value is a single, loud startup error naming the variable and
// the accepted form — never a silent fallback to a default that makes a
// typo'd JARVIS_THREADS=fuor run single-threaded without anyone noticing.
//
// Call sites with a Status channel (plan parsing, BuildingBlock::Init) use
// the Result-returning forms; call sites resolved before any Status can
// propagate (thread-count resolution, codec selection) use the *OrDie
// forms, which abort with the same message.

/// Raw lookup: unset or empty both mean "knob not provided" and return
/// nullopt, so `JARVIS_FAULTS=""` behaves like an unset variable.
std::optional<std::string> Raw(const char* name);

/// Integer knob clamped to [min_value, max_value]; unset returns `def`.
/// Non-numeric text, trailing garbage, or an out-of-range value is an
/// InvalidArgument error naming the variable and the accepted range.
Result<long> Int(const char* name, long def, long min_value, long max_value);

/// Boolean knob: 1/on/true/yes enable, 0/off/false/no disable (case
/// insensitive); unset returns `def`; anything else is an error.
Result<bool> Flag(const char* name, bool def);

/// Fatal variants for call sites without a Status channel: a malformed
/// value prints the same diagnostic to stderr and aborts at startup.
long IntOrDie(const char* name, long def, long min_value, long max_value);
bool FlagOrDie(const char* name, bool def);

}  // namespace jarvis::env

#endif  // JARVIS_COMMON_ENV_H_
