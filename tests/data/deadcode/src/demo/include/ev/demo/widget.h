// Fixture for scripts/deadcode.py --self-test (never compiled).
#pragma once

#include <string>

namespace ev::demo {

class Widget {
 public:
  void run(int n);
  int unused() const;
  int helper_of_unused() const;
  int kept() const;
  int helper_of_kept() const;
  std::string label() const;
  int probe() const { return count_; }
  int spare() const { return count_ * 2; }
  int size() const { return count_; }

 private:
  int step(int x);
  int count_ = 0;
};

class Gadget {
 public:
  virtual ~Gadget() = default;
  virtual void poll();
};

}  // namespace ev::demo
