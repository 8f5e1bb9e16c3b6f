// Runs the vmp_inspect binary (path injected by the build as
// VMP_INSPECT_TOOL) and captures what it prints, stdout and stderr merged.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace vmp::testing {

struct InspectRun {
  int exit_code = -1;
  std::string output;
};

inline InspectRun run_inspect(const std::string& args) {
  InspectRun run;
  const std::string command =
      std::string(VMP_INSPECT_TOOL) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    run.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

}  // namespace vmp::testing
