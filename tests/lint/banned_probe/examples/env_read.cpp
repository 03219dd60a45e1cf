// An example's main may read the environment: only src/ may not.
#include <cstdio>
#include <cstdlib>

int main() {
    std::puts(std::getenv("INJECTABLE_TRACE") != nullptr ? "traced" : "plain");
    return 0;
}
