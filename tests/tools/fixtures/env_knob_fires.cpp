// Fixture: every environment-read form the env-knob rule must catch,
// plus proof that comments, strings and look-alike names never trip it.
#include <cstdlib>

// getenv("REGEL_X") in a comment must NOT fire.
static const char *Str = "std::getenv(\"REGEL_Y\") in a string";

int mygetenv(const char *) { return 0; }

int bad() {
  const char *A = getenv("REGEL_A");          // line 11: fires
  const char *B = std::getenv("REGEL_B");     // line 12: fires
  const char *C = ::getenv("REGEL_C");        // line 13: fires
  (void)Str;
  return (A != nullptr) + (B != nullptr) + (C != nullptr) + mygetenv("D");
}
