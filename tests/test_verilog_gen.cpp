// Structural tests for the Verilog emitter (no RTL toolchain is assumed:
// the checks are textual — balanced constructs, declared-vs-used signals,
// parameter plumbing, and the Figure-1 testbench payload).

#include "systolic/verilog_gen.hpp"

#include <gtest/gtest.h>

#include <string>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "core/diff_cell.hpp"

namespace sysrle {
namespace {

using RunT = ::sysrle::Run;  // avoid collision with testing::Test::Run

/// Drops '//' comments so keyword counting sees only real code.
std::string strip_comments(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t line_end = nl == std::string::npos ? text.size() : nl + 1;
    std::string line = text.substr(pos, line_end - pos);
    const std::size_t comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment) + "\n";
    out += line;
    pos = line_end;
  }
  return out;
}

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::size_t count_token(const std::string& text, const std::string& token) {
  // Whole-word occurrences in code (comments stripped).
  const std::string code = strip_comments(text);
  std::size_t count = 0;
  for (std::size_t pos = code.find(token); pos != std::string::npos;
       pos = code.find(token, pos + 1)) {
    const std::size_t after = pos + token.size();
    if ((pos == 0 || !is_word_char(code[pos - 1])) &&
        (after == code.size() || !is_word_char(code[after])))
      ++count;
  }
  return count;
}

/// The first name declared by each `wire` / `reg` declaration:
/// `(wire|reg) [signed] [range] name` followed by one of `;`, `,`, `=`.
std::vector<std::string> declared_names(const std::string& v) {
  std::vector<std::string> names;
  auto skip_space = [&v](std::size_t i) {
    while (i < v.size() && is_space(v[i])) ++i;
    return i;
  };
  for (std::size_t pos = 0; pos < v.size(); ++pos) {
    std::size_t i = pos;
    if (v.compare(pos, 4, "wire") == 0)
      i += 4;
    else if (v.compare(pos, 3, "reg") == 0)
      i += 3;
    else
      continue;
    if (i >= v.size() || !is_space(v[i])) continue;
    i = skip_space(i);
    if (v.compare(i, 6, "signed") == 0 && i + 6 < v.size() &&
        is_space(v[i + 6]))
      i = skip_space(i + 6);
    if (i < v.size() && v[i] == '[') {
      const std::size_t close = v.find(']', i);
      if (close == std::string::npos) continue;
      i = skip_space(close + 1);
    }
    const std::size_t name_start = i;
    while (i < v.size() && is_word_char(v[i])) ++i;
    if (i == name_start) continue;
    const std::size_t name_end = i;
    i = skip_space(i);
    if (i < v.size() && (v[i] == ';' || v[i] == ',' || v[i] == '=')) {
      names.push_back(v.substr(name_start, name_end - name_start));
      pos = i;
    }
  }
  return names;
}

TEST(VerilogGen, CellModuleBalancedAndParameterised) {
  VerilogOptions opt;
  opt.word_bits = 24;
  const std::string v = generate_cell_verilog(opt);
  EXPECT_EQ(count_token(v, "module"), count_token(v, "endmodule"));
  EXPECT_EQ(count_token(v, "begin"), count_token(v, "end"));
  EXPECT_NE(v.find("parameter W = 24"), std::string::npos);
  EXPECT_NE(v.find("sysrle_cell"), std::string::npos);
}

TEST(VerilogGen, CellImplementsTheFourAssignments) {
  const std::string v = generate_cell_verilog();
  // The step-2 datapath landmarks.
  EXPECT_NE(v.find("bs - 1"), std::string::npos);   // RegBig.start - 1
  EXPECT_NE(v.find("se + 1"), std::string::npos);   // oldSmallEnd + 1
  EXPECT_NE(v.find("be + 1"), std::string::npos);   // RegBig.end + 1
  // Step 1 landmarks: swap and promote.
  EXPECT_NE(v.find("swap"), std::string::npos);
  EXPECT_NE(v.find("promote"), std::string::npos);
  // The completion line is the inverted RegBig valid.
  EXPECT_NE(v.find("assign complete    = ~rb_valid;"), std::string::npos);
}

TEST(VerilogGen, DeclaredSignalsAreUsed) {
  const std::string v = generate_cell_verilog();
  // Every locally declared wire/reg must appear at least twice (declaration
  // plus at least one use).
  const std::vector<std::string> names = declared_names(v);
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names)
    EXPECT_GE(count_token(v, name), 2u) << "unused signal: " << name;
}

TEST(VerilogGen, ArrayInstantiatesCellsAndReducesCompletion) {
  VerilogOptions opt;
  const std::string v = generate_array_verilog(opt, 12);
  EXPECT_NE(v.find("parameter N = 12"), std::string::npos);
  EXPECT_NE(v.find("generate"), std::string::npos);
  EXPECT_NE(v.find("sysrle_cell #(.W(W)) cell_i"), std::string::npos);
  EXPECT_NE(v.find("assign all_complete = &complete;"), std::string::npos);
  // Cell 0's RegBig input is tied off (the paper's input port I).
  EXPECT_NE(v.find("assign lane_valid[0] = 1'b0;"), std::string::npos);
  EXPECT_EQ(count_token(v, "module"), count_token(v, "endmodule"));
}

TEST(VerilogGen, TestbenchCarriesFigure1Payload) {
  const std::string v = generate_testbench_verilog({}, 10);
  // Image 1 runs as closed intervals.
  EXPECT_NE(v.find("load_run(0, 10, 12, 0)"), std::string::npos);
  EXPECT_NE(v.find("load_run(3, 27, 29, 0)"), std::string::npos);
  // Image 2 runs.
  EXPECT_NE(v.find("load_run(0, 3, 6, 1)"), std::string::npos);
  EXPECT_NE(v.find("load_run(4, 27, 30, 1)"), std::string::npos);
  // Expected-output comment (Figure 3 final state).
  EXPECT_NE(v.find("cell5 [30,30]"), std::string::npos);
  EXPECT_NE(v.find("$finish"), std::string::npos);
}

TEST(VerilogGen, CustomPrefixPropagates) {
  VerilogOptions opt;
  opt.module_prefix = "acme";
  EXPECT_NE(generate_cell_verilog(opt).find("module acme_cell"),
            std::string::npos);
  EXPECT_NE(generate_array_verilog(opt, 4).find("acme_cell #(.W(W))"),
            std::string::npos);
  EXPECT_NE(generate_testbench_verilog(opt, 8).find("acme_array"),
            std::string::npos);
}

// Independent transcription of the emitted cell equations, evaluated with
// the RTL's (W+1)-bit signed arithmetic, checked against DiffCell for every
// run pair (and lone-run/empty cases) in a small universe.  This is the
// functional leg of the RTL validation: the emitted equations and the
// simulator must describe the same machine.
struct RtlRegs {
  bool rs_valid = false, rb_valid = false;
  std::int64_t rs_start = 0, rs_end = 0, rb_start = 0, rb_end = 0;
};

RtlRegs rtl_step(RtlRegs r) {
  // step 1
  const bool both = r.rs_valid && r.rb_valid;
  const bool swap = both && (r.rs_start > r.rb_start ||
                             (r.rs_start == r.rb_start && r.rs_end > r.rb_end));
  const bool promote = !r.rs_valid && r.rb_valid;
  const bool o_small_valid = r.rs_valid || r.rb_valid;
  const std::int64_t o_small_start = (swap || promote) ? r.rb_start : r.rs_start;
  const std::int64_t o_small_end = (swap || promote) ? r.rb_end : r.rs_end;
  const bool o_big_valid = both;
  const std::int64_t o_big_start = swap ? r.rs_start : r.rb_start;
  const std::int64_t o_big_end = swap ? r.rs_end : r.rb_end;
  // step 2 (signed W+1 arithmetic: plain int64 here, values are tiny)
  const std::int64_t ss = o_small_start, se = o_small_end;
  const std::int64_t bs = o_big_start, be = o_big_end;
  const std::int64_t new_se = std::min(se, bs - 1);
  const std::int64_t max_seb = std::max(se + 1, bs);
  const std::int64_t new_bs = std::min(be + 1, max_seb);
  const std::int64_t new_be = std::max(se, be);
  RtlRegs out;
  out.rs_valid = o_big_valid ? (new_se >= ss) : o_small_valid;
  out.rs_start = o_small_start;
  out.rs_end = o_big_valid ? new_se : o_small_end;
  out.rb_valid = o_big_valid && (new_be >= new_bs);
  out.rb_start = o_big_valid ? new_bs : o_big_start;
  out.rb_end = o_big_valid ? new_be : o_big_end;
  return out;
}

TEST(VerilogGen, EmittedEquationsMatchDiffCellExhaustively) {
  auto check = [](std::optional<RunT> small, std::optional<RunT> big) {
    RtlRegs regs;
    if (small) {
      regs.rs_valid = true;
      regs.rs_start = small->start;
      regs.rs_end = small->end();
    }
    if (big) {
      regs.rb_valid = true;
      regs.rb_start = big->start;
      regs.rb_end = big->end();
    }
    const RtlRegs rtl = rtl_step(regs);

    DiffCell cell;
    cell.load_small(small);
    cell.load_big(big);
    cell.order();
    cell.xor_step();

    ASSERT_EQ(rtl.rs_valid, cell.reg_small().has_value());
    if (rtl.rs_valid) {
      ASSERT_EQ(rtl.rs_start, cell.reg_small()->start);
      ASSERT_EQ(rtl.rs_end, cell.reg_small()->end());
    }
    ASSERT_EQ(rtl.rb_valid, cell.reg_big().has_value());
    if (rtl.rb_valid) {
      ASSERT_EQ(rtl.rb_start, cell.reg_big()->start);
      ASSERT_EQ(rtl.rb_end, cell.reg_big()->end());
    }
  };

  constexpr pos_t kU = 8;  // universe width: all intervals within [0, 7]
  std::vector<std::optional<RunT>> values{std::nullopt};
  for (pos_t s = 0; s < kU; ++s)
    for (pos_t e = s; e < kU; ++e) values.push_back(RunT::from_bounds(s, e));
  for (const auto& small : values)
    for (const auto& big : values) check(small, big);
}

TEST(VerilogGen, RejectsBadOptions) {
  VerilogOptions opt;
  opt.word_bits = 1;
  EXPECT_THROW(generate_cell_verilog(opt), contract_error);
  opt.word_bits = 63;
  EXPECT_THROW(generate_cell_verilog(opt), contract_error);
  opt.word_bits = 20;
  opt.module_prefix = "";
  EXPECT_THROW(generate_cell_verilog(opt), contract_error);
  EXPECT_THROW(generate_array_verilog({}, 0), contract_error);
  EXPECT_THROW(generate_testbench_verilog({}, 5), contract_error);
}

}  // namespace
}  // namespace sysrle
