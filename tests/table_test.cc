// Tests for src/table: Value, Schema, Table, CSV, printer; and the distinct
// codes of a table's encoded record (fd/session_dict.h).
#include <gtest/gtest.h>

#include "fd/session_dict.h"
#include "table/csv.h"
#include "table/print.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace lakefuzz {
namespace {

// ---------------------------------------------------------------- Value

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, TypedConstructorsAndAccessors) {
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Int(-5).AsInt(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

TEST(ValueTest, ParseInfersTypes) {
  EXPECT_EQ(Value::Parse("").type(), ValueType::kNull);
  EXPECT_EQ(Value::Parse("123").type(), ValueType::kInt64);
  EXPECT_EQ(Value::Parse("-42").AsInt(), -42);
  EXPECT_EQ(Value::Parse("+7").AsInt(), 7);
  EXPECT_EQ(Value::Parse("3.14").type(), ValueType::kDouble);
  EXPECT_EQ(Value::Parse("1e3").type(), ValueType::kDouble);
  EXPECT_EQ(Value::Parse("true").type(), ValueType::kBool);
  EXPECT_EQ(Value::Parse("FALSE").type(), ValueType::kBool);
  EXPECT_EQ(Value::Parse("Berlin").type(), ValueType::kString);
}

TEST(ValueTest, ParseEdgeCasesStayStrings) {
  EXPECT_EQ(Value::Parse("1.2.3").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("12abc").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("-").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("tt0000001").type(), ValueType::kString);
  // Overflowing int64 literal must not silently lose digits.
  EXPECT_EQ(Value::Parse("99999999999999999999999").type(),
            ValueType::kString);
}

TEST(ValueTest, EqualityIsTypeSensitive) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  EXPECT_NE(Value::String("1"), Value::Int(1));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::String(""));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Double(1.0).Hash());
  // -0.0 and +0.0 compare equal as doubles; hashes must agree.
  EXPECT_EQ(Value::Double(0.0), Value::Double(-0.0));
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
}

TEST(ValueTest, ToStringRoundTripsThroughParse) {
  for (const Value& v :
       {Value::Int(123456789), Value::Double(0.1), Value::Double(1e-9),
        Value::Bool(false), Value::String("plain")}) {
    EXPECT_EQ(Value::Parse(v.ToString()), v) << v.ToString();
  }
}

TEST(ValueTest, TotalOrderIsStrictWeak) {
  std::vector<Value> vals{Value::Null(), Value::String("a"),
                          Value::String("b"), Value::Int(1), Value::Int(2),
                          Value::Double(0.5), Value::Bool(false),
                          Value::Bool(true)};
  std::sort(vals.begin(), vals.end());
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    EXPECT_FALSE(vals[i + 1] < vals[i]);
  }
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, FromNamesAndLookup) {
  Schema s = Schema::FromNames({"a", "b", "c"});
  EXPECT_EQ(s.NumFields(), 3u);
  EXPECT_EQ(s.FieldIndex("b"), 1u);
  EXPECT_EQ(s.FieldIndex("zz"), Schema::kNotFound);
  EXPECT_TRUE(s.HasField("c"));
  EXPECT_FALSE(s.HasField("d"));
}

TEST(SchemaTest, DuplicateNamesResolveToFirst) {
  Schema s = Schema::FromNames({"x", "x"});
  EXPECT_EQ(s.FieldIndex("x"), 0u);
}

TEST(SchemaTest, AddFieldReturnsIndex) {
  Schema s;
  EXPECT_EQ(s.AddField(Field{"n", ValueType::kInt64}), 0u);
  EXPECT_EQ(s.AddField(Field{"m", ValueType::kNull}), 1u);
  EXPECT_EQ(s.field(0).type, ValueType::kInt64);
}

TEST(SchemaTest, FieldNamesOrder) {
  Schema s = Schema::FromNames({"q", "w", "e"});
  EXPECT_EQ(s.FieldNames(), (std::vector<std::string>{"q", "w", "e"}));
}

// ---------------------------------------------------------------- Table

Table MakeCityTable() {
  Table t("cities", Schema::FromNames({"City", "Country"}));
  EXPECT_TRUE(t.AppendRow({Value::String("Berlin"), Value::String("DE")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::String("Paris"), Value::Null()}).ok());
  EXPECT_TRUE(t.AppendRow({Value::String("Berlin"), Value::String("DE")}).ok());
  return t;
}

TEST(TableTest, AppendAndAccess) {
  Table t = MakeCityTable();
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.NumColumns(), 2u);
  EXPECT_EQ(t.At(0, 0), Value::String("Berlin"));
  EXPECT_TRUE(t.At(1, 1).is_null());
}

TEST(TableTest, AppendRowRejectsWrongArity) {
  Table t("t", Schema::FromNames({"a", "b"}));
  Status s = t.AppendRow({Value::Int(1)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, SetOverwritesCell) {
  Table t = MakeCityTable();
  t.Set(1, 1, Value::String("FR"));
  EXPECT_EQ(t.At(1, 1), Value::String("FR"));
}

TEST(TableTest, RowMaterializes) {
  Table t = MakeCityTable();
  auto row = t.Row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], Value::String("Berlin"));
  EXPECT_EQ(row[1], Value::String("DE"));
}

TEST(EncodedTableTest, DistinctCodesFirstAppearanceOrder) {
  SessionDict dict;
  const auto record = dict.Encode(MakeCityTable(), "cities");
  auto d0 = DistinctCodes(record->codes[0]);
  ASSERT_EQ(d0.size(), 2u);
  EXPECT_EQ(dict.dict().Decode(d0[0]), Value::String("Berlin"));
  EXPECT_EQ(dict.dict().Decode(d0[1]), Value::String("Paris"));
  EXPECT_EQ(DistinctCodes(record->codes[1]).size(), 1u);  // null excluded
  EXPECT_EQ(DistinctCodes(record->codes[0], /*limit=*/1).size(), 1u);
}

TEST(TableTest, NullCount) {
  Table t = MakeCityTable();
  EXPECT_EQ(t.NullCount(0), 0u);
  EXPECT_EQ(t.NullCount(1), 1u);
}

TEST(TableTest, FromRowsBuilds) {
  auto r = Table::FromRows("x", {"a"}, {{Value::Int(1)}, {Value::Int(2)}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 2u);
}

TEST(TableTest, FromRowsPropagatesArityError) {
  auto r = Table::FromRows("x", {"a", "b"}, {{Value::Int(1)}});
  EXPECT_FALSE(r.ok());
}

TEST(TableTest, SelectRowsProjectsInOrder) {
  Table t = MakeCityTable();
  Table s = t.SelectRows({2, 0});
  ASSERT_EQ(s.NumRows(), 2u);
  EXPECT_EQ(s.At(0, 0), Value::String("Berlin"));
  EXPECT_EQ(s.At(1, 0), Value::String("Berlin"));
  EXPECT_EQ(s.name(), t.name());
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, BasicParseWithHeader) {
  auto r = ReadCsv("a,b\n1,x\n2,y\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(r->schema().FieldNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r->At(0, 0), Value::Int(1));
  EXPECT_EQ(r->At(1, 1), Value::String("y"));
}

TEST(CsvTest, NoHeaderSynthesizesNames) {
  CsvOptions opts;
  opts.has_header = false;
  auto r = ReadCsv("1,2\n3,4\n", "t", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().FieldNames(), (std::vector<std::string>{"c0", "c1"}));
  EXPECT_EQ(r->NumRows(), 2u);
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndQuotes) {
  auto r = ReadCsv("a,b\n\"x,y\",\"He said \"\"hi\"\"\"\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0), Value::String("x,y"));
  EXPECT_EQ(r->At(0, 1), Value::String("He said \"hi\""));
}

TEST(CsvTest, EmbeddedNewlineInsideQuotes) {
  auto r = ReadCsv("a\n\"line1\nline2\"\n", "t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->At(0, 0), Value::String("line1\nline2"));
}

TEST(CsvTest, CrLfLineEndings) {
  auto r = ReadCsv("a,b\r\n1,2\r\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->At(0, 1), Value::Int(2));
}

TEST(CsvTest, EmptyUnquotedFieldIsNullQuotedIsNull) {
  auto r = ReadCsv("a,b\n,x\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->At(0, 0).is_null());
}

TEST(CsvTest, TrailingNewlineDoesNotAddRow) {
  auto r1 = ReadCsv("a\n1\n", "t");
  auto r2 = ReadCsv("a\n1", "t");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->NumRows(), r2->NumRows());
}

TEST(CsvTest, InconsistentFieldCountFails) {
  auto r = ReadCsv("a,b\n1\n", "t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto r = ReadCsv("a\n\"oops\n", "t");
  ASSERT_FALSE(r.ok());
}

TEST(CsvTest, TypeInferenceCanBeDisabled) {
  CsvOptions opts;
  opts.infer_types = false;
  auto r = ReadCsv("a\n123\n", "t", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0), Value::String("123"));
}

TEST(CsvTest, QuotedNumbersStayStrings) {
  auto r = ReadCsv("a\n\"007\"\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0), Value::String("007"));
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  auto r = ReadCsv("a;b\n1;2\n", "t", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 1), Value::Int(2));
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table t("rt", Schema::FromNames({"s", "n", "d"}));
  ASSERT_TRUE(t.AppendRow({Value::String("a,\"b\"\nc"), Value::Int(-3),
                           Value::Double(2.5)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Int(0), Value::Null()}).ok());
  auto r = ReadCsv(WriteCsv(t), "rt");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), t.NumRows());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      EXPECT_EQ(r->At(i, c), t.At(i, c)) << "cell " << i << "," << c;
    }
  }
}

TEST(CsvTest, WritePreservesWhitespaceViaQuoting) {
  Table t("ws", Schema::FromNames({"s"}));
  ASSERT_TRUE(t.AppendRow({Value::String("  padded  ")}).ok());
  auto r = ReadCsv(WriteCsv(t), "ws");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0), Value::String("  padded  "));
}

TEST(CsvTest, FileRoundTrip) {
  Table t = MakeCityTable();
  std::string path = testing::TempDir() + "/lakefuzz_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto r = ReadCsvFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), t.NumRows());
  EXPECT_EQ(r->name(), "lakefuzz_csv_test");
}

TEST(CsvTest, MissingFileIsIoError) {
  auto r = ReadCsvFile("/nonexistent/nope.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, EmptyInputYieldsEmptyTable) {
  auto r = ReadCsv("", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
  EXPECT_EQ(r->NumColumns(), 0u);
}

// ---------------------------------------------------------------- Print

TEST(PrintTest, RendersHeaderAndNullSymbol) {
  Table t = MakeCityTable();
  std::string s = RenderTable(t);
  EXPECT_NE(s.find("City"), std::string::npos);
  EXPECT_NE(s.find("⊥"), std::string::npos);
  EXPECT_NE(s.find("cities (3 rows x 2 cols)"), std::string::npos);
}

TEST(PrintTest, ElidesRowsBeyondLimit) {
  Table t("big", Schema::FromNames({"n"}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i)}).ok());
  }
  PrintOptions opts;
  opts.max_rows = 3;
  std::string s = RenderTable(t, opts);
  EXPECT_NE(s.find("(7 more rows)"), std::string::npos);
}

TEST(PrintTest, ClipsWideCells) {
  Table t("wide", Schema::FromNames({"s"}));
  ASSERT_TRUE(t.AppendRow({Value::String(std::string(100, 'x'))}).ok());
  PrintOptions opts;
  opts.max_cell_width = 10;
  std::string s = RenderTable(t, opts);
  EXPECT_NE(s.find("…"), std::string::npos);
  EXPECT_EQ(s.find(std::string(50, 'x')), std::string::npos);
}

}  // namespace
}  // namespace lakefuzz
