// Entry point of the `cobra` binary.
#pragma once

#include <string>

namespace cobra::runner {

/// Full CLI: `cobra <list|run|sweep|merge|help> [NAME...] [flags]`.
/// `argv` excludes the program name. Returns the process exit code.
int cli_main(int argc, const char* const* argv);

}  // namespace cobra::runner
