// Fixture for scripts/deadcode.py --self-test (never compiled).
#include "ev/demo/widget.h"

int main() {
  ev::demo::Widget w;
  ev::demo::Gadget g;
  w.run(3);
  g.poll();
  return w.size();
}
