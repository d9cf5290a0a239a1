// Parser + validator for the `.topo` scenario format (dependency-free,
// line-oriented). See DESIGN.md §10 for the grammar; in brief:
//
//   # comment                      (anywhere; rest of line)
//   scenario <name>                (optional, once, first)
//   set <field> <value>            (Scenario fields; must precede graph)
//   node <name> [count <N>]
//   link <from> <to> rate <R> delay <D> [spread <F>]
//        [queue gateway            (the scenario's gateway discipline)
//         | queue droptail [cap N]
//         | queue red [min X] [max X] [maxp X] [weight X] [cap N]
//                     [ecn] [adaptive]
//         | queue drr [cap N] [quantum BYTES]]
//   flow <src> <dst> [transport <t>] [delack] [nodelack]
//        [workload poisson <MEAN>]
//   measure <from> <to>
//
// Rates accept bps/kbps/Mbps/Gbps suffixes, times s/ms/us; the suffix
// arithmetic is the same expression the C++ helpers use (`20ms` is
// bit-identical to ms(20)), which is what makes a parsed dumbbell
// fingerprint-equal to the generated one. `$field` anywhere a number is
// expected substitutes the named numeric Scenario field's current value
// (scenario_field_value: the capacity fields read their mean-field scaled
// values), so campaign sweeps over e.g. `clients` can reshape the graph.
// `set` and `$field` both read the Scenario field list (scenario.hpp).
//
// Errors carry precise 1-based line/column positions.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/topo/spec.hpp"

namespace burst {

struct TopoError {
  int line = 0;  // 1-based; 0 = file-level (e.g. unreadable)
  int col = 0;   // 1-based column of the offending token
  std::string message;

  /// "file:line:col: message" (diagnostics format editors understand).
  std::string render(std::string_view file) const;
};

/// Scenario-field overrides applied between the file's `set` statements
/// and its first graph statement (campaign sweep axes land here).
using TopoOverrides = std::vector<std::pair<std::string, std::string>>;

/// Parses and validates @p text. @p default_name seeds TopoSpec::name
/// when the file has no `scenario` statement. On failure returns nullopt
/// with *err filled in.
std::optional<TopoSpec> parse_topo(std::string_view text,
                                   std::string_view default_name,
                                   TopoError* err,
                                   const TopoOverrides& overrides = {});

/// Reads @p path and parses it (default name = file stem).
std::optional<TopoSpec> load_topo_file(const std::string& path, TopoError* err,
                                       const TopoOverrides& overrides = {});

/// One word of a `.topo` or `.camp` line.
struct LineToken {
  std::string text;
  int col = 0;  // 1-based
};

/// Splits @p line on spaces, tabs and carriage returns (so CRLF files read
/// like LF ones); `#` starts a comment through the end of the line. The
/// `.topo` and `.camp` grammars share it.
std::vector<LineToken> tokenize_line(const std::string& line);

/// Reads all of @p path into *text. On failure returns false with *err
/// (when given) a file-level "cannot open file".
bool read_text_file(const std::string& path, std::string* text,
                    TopoError* err);

}  // namespace burst
