// Fixture for scripts/deadcode.py --self-test (never compiled).
#include "ev/demo/widget.h"

namespace ev::demo {

int Widget::step(int x) { return x + 1; }

void Widget::run(int n) {
  for (int i = 0; i < n; ++i) count_ = step(count_);
}

int Widget::helper_of_unused() const { return count_ + 1; }

int Widget::unused() const { return count_ > 9 ? unused() : helper_of_unused() * 2; }

int Widget::helper_of_kept() const { return count_ - 1; }

int Widget::kept() const { return helper_of_kept(); }

std::string Widget::label() const { return "widget"; }

void Gadget::poll() {}

}  // namespace ev::demo
