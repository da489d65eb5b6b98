// RScript parser: tokens -> AST. Throws ScriptException with line context on
// malformed input.
#pragma once

#include <memory>
#include <string_view>

#include "rcs/script/ast.hpp"

namespace rcs::script {

[[nodiscard]] Script parse(std::string_view source);

/// The parsed script of `source`, shared: each distinct source text is
/// parsed once per process, and every later call with the same text gets the
/// same immutable AST, which concurrent simulations may run at once. Keyed
/// on the full text; the first parse to finish wins, and nothing is ever
/// evicted. The table holds one entry per distinct source a process runs:
/// the ScriptBuilder outputs of the configurations and transitions it uses,
/// their fsim `script.rollback` variants, and the intra-FTM context update.
/// A source that fails to lex or parse is not kept, so it throws the same
/// ScriptException on every call.
[[nodiscard]] std::shared_ptr<const Script> parse_shared(std::string_view source);

}  // namespace rcs::script
