// Fixture: settings come from a config struct; an inline lint:allow
// marker suppresses the env-knob rule on exactly its own line.
#include <cstdlib>

struct Config {
  int Verbosity = 0;
};

int verbosity(const Config &Cfg) { return Cfg.Verbosity; }

bool justified() {
  // Read on purpose: this fixture documents why.
  return std::getenv("HOME") != nullptr; // lint:allow env-knob
}
